package repro.core

import scala.reflect.ClassTag

/** One node of a compiled join-tree [[Plan]]: the tree topology and the
  * projection index arrays that every engine built on the plan reads. An
  * engine's node class extends this with only its own view state; `N` is
  * that class, so `parent`, `children` and `enumKids` are typed as it.
  */
abstract class PlanNode[N <: PlanNode[N]](val id: Int, val attrs: Vector[String],
                                          val atom: Option[Atom], ySet: Set[String]) {
  val isGen: Boolean = atom.isEmpty
  var parent: N = _
  var children: Array[N] = _
  var childPos: Int = -1 // position of this node among parent's children

  val yAttrs: Vector[String] = attrs.filter(ySet.contains)
  val hasY: Boolean = yAttrs.nonEmpty
  def isRoot: Boolean = parent == null
  def isLeaf: Boolean = children.isEmpty

  var keyAttrs: Vector[String] = Vector.empty  // attrs ∩ parent, parent order
  var keyIdx: Array[Int] = _                   // attrs -> keyAttrs
  var yIdx: Array[Int] = _                     // attrs -> yAttrs
  var yOut: Array[Int] = _                     // yAttrs -> output slots
  var linkAttrs: Vector[String] = Vector.empty // attrs ∩ parent ∩ y, parent order
  var linkUpIdx: Array[Int] = _                // yAttrs -> linkAttrs
  var childKeyIdx: Array[Array[Int]] = _       // per child: attrs -> key(child)
  var childKeyFromY: Array[Array[Int]] = _     // per child: yAttrs -> key(child), if key ⊆ y
  var liveKeyIdx: Array[Array[Int]] = _        // per child: yAttrs -> linkAttrs(child), if hasY
  var subtreeY: Set[String] = Set.empty        // output attrs of this node's subtree
  var enumKids: Array[N] = _                   // children whose subtree adds output attrs
  var outKids: Array[N] = _                    // children whose subtree has any output attr
  var depth: Int = 0
  var path: Array[N] = _                       // leaf-to-root: this node first, root last
}

/** A generalized join tree for `cq` compiled once into linked nodes and
  * their index arrays, shared by set-semantics CROWN ([[CrownEngine]]) and
  * ring-annotated CROWN ([[AnnotatedCrown]]) — §7.3 runs aggregation over
  * the same plan. `mkNode(id, attrs, atom, outputAttrs)` creates an engine's
  * node; `nodes` lists them in preorder, indexed by `id`.
  *
  * The plan accepts any tree; conditions that only one engine needs (an
  * output attribute at the root, enumerability) are checked by that engine.
  */
final class Plan[N <: PlanNode[N]](cq: CQ, tree: JTNode)(
    mkNode: (Int, Vector[String], Option[Atom], Set[String]) => N)(implicit ct: ClassTag[N]) {

  private val y: Vector[String] = cq.output
  private val ySet: Set[String] = y.toSet

  val nodes: Array[N] = {
    val buf = Array.newBuilder[N]
    var next = 0
    // `children` is a real Array[N] (via the ClassTag), so reads of it need no
    // generic array access on the engines' hot paths
    def build(spec: JTNode): N = {
      val n = mkNode(next, spec.attrs, spec.atomName.map(cq.atomByName), ySet)
      next += 1
      buf += n
      n.children = spec.children.map(build).toArray
      for ((c, i) <- n.children.zipWithIndex) { c.parent = n; c.childPos = i }
      n
    }
    build(tree)
    buf.result()
  }
  val root: N = nodes(0)

  for (n <- nodes.reverseIterator) // children before parents
    n.subtreeY = n.yAttrs.toSet ++ n.children.flatMap(_.subtreeY)
  // pass 1: key/link attribute sets (parent-order canonical) for every node
  for (n <- nodes) {
    n.yIdx = Tup.projIdx(n.attrs, n.yAttrs)
    n.yOut = Tup.projIdx(y, n.yAttrs) // positions of yAttrs inside the output
    if (!n.isRoot) {
      n.keyAttrs = n.parent.attrs.filter(n.attrs.contains)
      n.keyIdx = Tup.projIdx(n.attrs, n.keyAttrs)
      n.linkAttrs = n.parent.attrs.filter(a => n.attrs.contains(a) && ySet.contains(a))
      if (n.hasY) n.linkUpIdx = Tup.projIdx(n.yAttrs, n.linkAttrs)
      n.depth = n.parent.depth + 1 // preorder: the parent is done
      n.path = n +: n.parent.path
    } else n.path = Array(n)
  }
  // pass 2: projections that read the children's key/link attrs
  for (n <- nodes) {
    n.childKeyIdx = n.children.map(c => Tup.projIdx(n.attrs, c.keyAttrs))
    n.childKeyFromY = n.children.map(c =>
      if (c.keyAttrs.forall(ySet.contains)) Tup.projIdx(n.yAttrs, c.keyAttrs) else null)
    if (n.hasY)
      n.liveKeyIdx = n.children.map(c =>
        if (c.hasY) Tup.projIdx(n.yAttrs, c.linkAttrs) else null)
    n.enumKids = n.children.filter(c => (c.subtreeY -- n.attrs).nonEmpty)
    n.outKids = n.children.filter(_.subtreeY.nonEmpty)
  }

  private val byAtom: Map[String, N] =
    nodes.iterator.filter(_.atom.isDefined).map(n => n.atom.get.name -> n).toMap

  /** The node of relation `rel`; an unknown relation is an argument error. */
  def atomNode(rel: String): N = {
    val n = byAtom.getOrElse(rel, null.asInstanceOf[N])
    if (n == null) throw new IllegalArgumentException(s"unknown relation $rel")
    n
  }
}
