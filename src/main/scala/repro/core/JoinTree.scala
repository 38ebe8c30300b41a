package repro.core

import scala.collection.mutable

/** A node of a (generalized) join tree (Def 3.1). `atomName = None` marks a
  * generalized relation — a virtual node whose attribute set is a subset of
  * some input relation's attributes and which, per Def 3.1(3)-(4), sits above
  * all input relations with its attrs contained in every child's attrs.
  */
final case class JTNode(attrs: Vector[String], atomName: Option[String],
                        children: Vector[JTNode]) {
  def isGen: Boolean = atomName.isEmpty

  /** All nodes, preorder. */
  def allNodes: Vector[JTNode] = this +: children.flatMap(_.allNodes)

  /** Height = max number of *input relations* on a leaf-to-root path
    * (generalized relations are not counted), as in §3.2.
    */
  def height: Int = {
    val self = if (isGen) 0 else 1
    if (children.isEmpty) self else self + children.map(_.height).max
  }

  override def toString: String = {
    val label = atomName.getOrElse("[" + attrs.mkString(",") + "]")
    if (children.isEmpty) label
    else label + "(" + children.map(_.toString).mkString(", ") + ")"
  }
}

/** Construction and selection of free-connex generalized join trees (§4.1,
  * §6.3). Candidate families:
  *
  *   1. every rooted standard join tree (all tree shapes over the atoms,
  *      filtered by the attribute-connectivity condition);
  *   2. each of those with a generalized root `r ∩ c` spliced above a
  *      root-child edge (this family contains the plan of Fig. 1(c));
  *   3. the recursive common-attribute construction from the proof of
  *      Lemma 6.8, which yields height-1 (possibly nested-generalized)
  *      trees for q-hierarchical queries.
  *
  * Candidates are validated against Def 3.1, filtered by the free-connex
  * condition of Def 3.2, and ranked by (height, Σ_e d(e)·N(e)) where d(e)
  * counts input-relation ancestors and N(e) is the expected number of
  * updates to e — the paper's plan-optimization heuristic.
  */
object JoinTree {

  /** Check Def 3.1 (valid generalized join tree) + per-attribute
    * connectivity. Returns an error description or unit.
    */
  def validate(cq: CQ, root: JTNode): Either[String, Unit] = {
    val nodes = root.allNodes
    val atomNodes = nodes.filter(!_.isGen)
    if (atomNodes.map(_.atomName.get).sorted != cq.atoms.map(_.name).sorted)
      return Left("atoms and tree leaves/internal atom nodes do not match")
    for (n <- atomNodes) {
      val atom = cq.atomByName(n.atomName.get)
      if (n.attrs != atom.attrs) return Left(s"node ${n.atomName.get} attrs mismatch")
    }
    for (n <- nodes if n.children.isEmpty && n.isGen)
      return Left("generalized node cannot be a leaf")
    // prop (3): generalized nodes appear above all input-relation nodes
    def genAboveOk(n: JTNode, sawAtom: Boolean): Boolean =
      (!n.isGen || !sawAtom) && n.children.forall(c => genAboveOk(c, sawAtom || !n.isGen))
    if (!genAboveOk(root, sawAtom = false)) return Left("generalized node below an input relation")
    // prop (4): generalized parent contained in each child
    def containOk(n: JTNode): Boolean =
      (!n.isGen || n.children.forall(c => n.attrs.toSet.subsetOf(c.attrs.toSet))) &&
        n.children.forall(containOk)
    if (!containOk(root)) return Left("generalized parent not contained in child")
    // generalized attrs must be a subset of some input relation
    for (n <- nodes if n.isGen)
      if (!cq.atoms.exists(a => n.attrs.toSet.subsetOf(a.attrs.toSet)))
        return Left(s"generalized node ${n.attrs} not a subset of any relation")
    // prop (2): attribute connectivity
    for (x <- cq.allVars) {
      def connected(n: JTNode): Int = { // count connected components containing x in subtree
        val childComps = n.children.map(connected).sum
        if (n.attrs.contains(x)) {
          val touching = n.children.count(c => c.allNodes.exists(_.attrs.contains(x)))
          // children containing x must be adjacent through n (their top must contain x)
          val adjacent = n.children.count(c => c.attrs.contains(x))
          if (touching != adjacent) return Int.MinValue / 2 // disconnected below
          childComps - adjacent + 1
        } else childComps
      }
      if (connected(root) != (if (cq.allVars.contains(x)) 1 else 0))
        return Left(s"attribute $x not connected")
    }
    Right(())
  }

  /** Enumerability condition — the operational form of Def 3.2's free-connex
    * requirement used by the engine. A tree qualifies iff (a) the root
    * carries at least one output attribute and (b) for every node `e` and
    * child `c` whose subtree contributes output attributes beyond `e`'s, the
    * join key `e ∩ c` consists of output attributes only. Then enumeration
    * can walk distinct output-projections top-down (mixed nodes enumerate
    * their counted distinct projections and still descend, since the child
    * keys are fully determined by the projection).
    *
    * Trees satisfying the literal Def 3.2 (non-output tops never above
    * output tops) qualify: below a node with a non-output attribute no new
    * output attribute appears, so (b) is vacuous there. The relaxation
    * additionally admits e.g. SNB Q2's tree, where the message relation's
    * non-output reply-of column sits mid-tree but all its child keys are
    * output attributes.
    */
  def isFreeConnexTree(cq: CQ, root: JTNode): Boolean = {
    if (cq.output.isEmpty) return false
    if (!root.attrs.exists(cq.output.contains)) return false
    val y = cq.output.toSet
    def subtreeY(n: JTNode): Set[String] =
      n.attrs.filter(y.contains).toSet ++ n.children.flatMap(subtreeY)
    def ok(e: JTNode): Boolean =
      e.children.forall { c =>
        val contributes = (subtreeY(c) -- e.attrs).nonEmpty
        (!contributes || (c.attrs.toSet & e.attrs.toSet).subsetOf(y)) && ok(c)
      }
    ok(root)
  }

  /** Enumerate rooted standard join trees (no generalized nodes). All tree
    * shapes over the atoms are generated (feasible at query sizes ≤ ~8) and
    * filtered through [[validate]].
    */
  def standardTrees(cq: CQ): Seq[JTNode] = {
    val n = cq.atoms.size
    val out = mutable.ListBuffer.empty[JTNode]
    val seen = mutable.HashSet.empty[String]
    // parent(i) = index of parent atom, or -1 for root
    def build(parent: Array[Int]): JTNode = {
      def mk(i: Int): JTNode = {
        val kids = parent.indices.filter(parent(_) == i).map(mk).toVector
        JTNode(cq.atoms(i).attrs, Some(cq.atoms(i).name), kids)
      }
      mk(parent.indexOf(-1))
    }
    def rec(parent: Array[Int], placed: List[Int], remaining: List[Int]): Unit =
      remaining match {
        case Nil =>
          val t = build(parent)
          if (validate(cq, t).isRight && seen.add(t.toString)) out += t
        case _ =>
          for (a <- remaining; p <- placed) {
            // only attach along shared attributes (or allow empty share for
            // disconnected queries)
            val share = cq.atoms(a).attrs.toSet & cq.atoms(p).attrs.toSet
            if (share.nonEmpty || alwaysAttach(cq)) {
              parent(a) = p
              rec(parent, a :: placed, remaining.filterNot(_ == a))
              parent(a) = -2
            }
          }
      }
    for (r <- 0 until n) {
      val parent = Array.fill(n)(-2)
      parent(r) = -1
      rec(parent, List(r), (0 until n).filterNot(_ == r).toList)
    }
    out.toList
  }

  /** Whether to allow attaching atoms with empty shared-attribute sets
    * (needed only for genuinely disconnected queries).
    */
  private def alwaysAttach(cq: CQ): Boolean = {
    // connectivity of the atom graph via shared variables
    val n = cq.atoms.size
    val adj = Array.tabulate(n, n)((i, j) =>
      i != j && (cq.atoms(i).attrs.toSet & cq.atoms(j).attrs.toSet).nonEmpty)
    val vis = Array.fill(n)(false)
    def dfs(i: Int): Unit = { vis(i) = true; for (j <- 0 until n if adj(i)(j) && !vis(j)) dfs(j) }
    dfs(0)
    !vis.forall(identity)
  }

  /** Family 2: splice a generalized root `attrs(r) ∩ attrs(c)` above each
    * root-child edge of each rooted standard tree.
    */
  def genRootTrees(cq: CQ): Seq[JTNode] =
    for {
      t <- standardTrees(cq)
      c <- t.children
      shared = t.attrs.filter(c.attrs.contains)
      if shared.nonEmpty
    } yield JTNode(shared, None,
      Vector(t.copy(children = t.children.filterNot(_ eq c)), c))

  /** Family 3: the recursive common-attribute construction from the proof of
    * Lemma 6.8. Produces a height-1 tree for every q-hierarchical query.
    */
  def hierarchicalTree(cq: CQ): Option[JTNode] = {
    // connected components of `atoms` ignoring already-pulled attributes
    def comps(atoms: Vector[Atom], ignore: Set[String]): Vector[Vector[Atom]] = {
      val groups = mutable.ListBuffer.empty[mutable.ListBuffer[Atom]]
      for (a <- atoms) {
        val av = a.attrs.toSet -- ignore
        val hit = groups.filter(g => g.exists(b => (b.attrs.toSet -- ignore).intersect(av).nonEmpty)).toList
        if (hit.isEmpty || av.isEmpty) groups += mutable.ListBuffer(a)
        else {
          val merged = hit.head
          for (other <- hit.tail) { merged ++= other; groups -= other }
          merged += a
        }
      }
      groups.map(_.toVector).toVector
    }
    // `pulled` = attributes hoisted into generalized ancestors; every atom in
    // scope contains all of them, so a gen node [pulled] satisfies Def 3.1(4).
    def rec(atoms: Vector[Atom], pulled: Vector[String]): Option[JTNode] = {
      if (atoms.size == 1)
        return Some(JTNode(atoms.head.attrs, Some(atoms.head.name), Vector.empty))
      val cs = comps(atoms, pulled.toSet)
      if (cs.size > 1) {
        val kids = cs.map(c => rec(c, pulled))
        if (kids.exists(_.isEmpty)) None
        else Some(JTNode(pulled, None, kids.map(_.get)))
      } else {
        val common = atoms.map(_.attrs.toSet -- pulled).reduce(_ & _)
        if (common.isEmpty) None
        else {
          val commonV = atoms.head.attrs.filter(common.contains)
          rec(atoms, pulled ++ commonV)
        }
      }
    }
    rec(cq.atoms, Vector.empty).filter(t => validate(cq, t).isRight)
  }

  /** All candidate trees, deduplicated. */
  def candidates(cq: CQ): Seq[JTNode] =
    (standardTrees(cq) ++ genRootTrees(cq) ++ hierarchicalTree(cq).toSeq)
      .filter(t => validate(cq, t).isRight)
      .groupBy(_.toString).map(_._2.head).toSeq

  /** Plan cost Σ_e d(e)·N(e) (§6.3): d(e) = number of input-relation strict
    * ancestors of e; N(e) = expected updates to e (0 for generalized nodes).
    */
  def cost(root: JTNode, updates: Map[String, Long]): Long = {
    def rec(n: JTNode, depth: Int): Long = {
      val self = n.atomName.map(a => depth.toLong * updates.getOrElse(a, 1L)).getOrElse(0L)
      val d2 = depth + (if (n.isGen) 0 else 1)
      self + n.children.map(rec(_, d2)).sum
    }
    rec(root, 0)
  }

  /** Pick the best free-connex tree: min height, then min update-weighted
    * cost. None if the query admits no free-connex tree in our families
    * (then the caller extends the output per §7.1).
    */
  def choose(cq: CQ, updates: Map[String, Long] = Map.empty): Option[JTNode] = {
    val fc = candidates(cq).filter(t => isFreeConnexTree(cq, t))
    if (fc.isEmpty) None
    else Some(fc.minBy(t => (t.height, cost(t, updates), t.toString)))
  }
}
