package repro.core

import repro.core.Tup.T
import scala.collection.immutable.ArraySeq
import scala.collection.mutable

/** A commutative ring `(S, ⊕, ⊗)` for §7.3 aggregations. Deletions need
  * additive inverses, hence a ring rather than a semiring (footnote 7).
  */
trait Ring[A] {
  def zero: A
  def one: A
  def plus(a: A, b: A): A
  def times(a: A, b: A): A
  def negate(a: A): A
}

object Ring {
  /** ℤ — COUNT aggregates. */
  implicit object LongRing extends Ring[Long] {
    val zero = 0L; val one = 1L
    def plus(a: Long, b: Long): Long = a + b
    def times(a: Long, b: Long): Long = a * b
    def negate(a: Long): Long = -a
  }
  /** ℝ — SUM aggregates. */
  implicit object DoubleRing extends Ring[Double] {
    val zero = 0.0; val one = 1.0
    def plus(a: Double, b: Double): Double = a + b
    def times(a: Double, b: Double): Double = a * b
    def negate(a: Double): Double = -a
  }
}

/** §7.3: CROWN with ring annotations — maintains
  * `SELECT y, AGG(...) GROUP BY y` over a free-connex join tree.
  *
  * Realizes formulas (10)–(12) in sum-product form: for every node whose
  * subtree carries **no** output attribute, the engine maintains the
  * annotated projection view
  *
  *   `vpAgg(e)(k) = Σ_{t ∈ V_s(e), t[key]=k}  base(t) ⊗ Π_c vpAgg(c)(t[key(c)])`
  *
  * incrementally (this is the "aggregated-away" part — the reason §7.3 can
  * avoid enumerating the full join). Nodes that carry output attributes keep
  * only set-semantics membership; their annotations combine at enumeration
  * time, where results sharing an output projection sum (formula (11)/(12)).
  * Per the paper, a value change keeps propagating upward even when the
  * membership counter does not flip — unlike Algorithm 2.
  */
final class AnnotatedCrown[A](val cq: CQ, val treeSpec: JTNode,
                              baseAnnot: (String, T) => A)(implicit ring: Ring[A]) {

  private final class NState(var count: Int, var w: A)

  private final class Node(id: Int, attrs: Vector[String], atom: Option[Atom], ySet: Set[String])
      extends PlanNode[Node](id, attrs, atom, ySet) {
    val tuples = mutable.HashMap.empty[T, NState]
    var childIdx: Array[mutable.HashMap[T, mutable.HashSet[T]]] = _
    val vpCnt = mutable.HashMap.empty[T, Int]                  // non-root membership
    val enumIdx = mutable.HashMap.empty[T, mutable.HashSet[T]] // non-root, subtreeY non-empty
    val vpAgg = mutable.HashMap.empty[T, A]                    // non-root, subtreeY empty
  }

  private val plan = new Plan[Node](cq, treeSpec)(new Node(_, _, _, _))
  private val root: Node = plan.root
  for (n <- plan.nodes if !n.isGen)
    n.childIdx = n.children.map(_ => mutable.HashMap.empty[T, mutable.HashSet[T]])

  private def member(e: Node, st: NState): Boolean = st.count == e.children.length

  /** Annotated weight of tuple `t` at `e` (formula (10)): its base annotation
    * times the maintained `vpAgg` factor of every aggregated-away child. On
    * a node whose subtree has no output attribute that is every child.
    */
  private def weight(e: Node, t: T): A = {
    var v = e.atom.map(a => baseAnnot(a.name, t)).getOrElse(ring.one)
    var i = 0
    while (i < e.children.length) {
      val c = e.children(i)
      if (c.subtreeY.isEmpty)
        v = ring.times(v, c.vpAgg.getOrElse(Tup.proj(t, e.childKeyIdx(i)), ring.zero))
      i += 1
    }
    v
  }

  /** Push a membership and/or weight change of `t` at `e` into `e`'s views
    * and onward to the parent. `wasMember`/`oldW` describe the state before.
    */
  private def settle(e: Node, t: T, wasMember: Boolean, oldW: A): Unit = {
    val st = e.tuples.getOrElse(t, null)
    val isMember = st != null && member(e, st)
    val newW =
      if (!isMember) ring.zero
      else if (e.subtreeY.nonEmpty) ring.one // weights only tracked on no-Y subtrees
      else weight(e, t)
    if (st != null) st.w = newW
    if (e.isRoot) return
    val k = Tup.proj(t, e.keyIdx)
    var cntFlip = false
    val indexed = e.subtreeY.nonEmpty // results() reads V_s only there
    if (isMember && !wasMember) {
      if (indexed) e.enumIdx.getOrElseUpdate(k, mutable.HashSet.empty) += t
      val c = e.vpCnt.getOrElse(k, 0)
      e.vpCnt(k) = c + 1
      cntFlip = c == 0
    } else if (!isMember && wasMember) {
      if (indexed) e.enumIdx.get(k).foreach { s => s -= t; if (s.isEmpty) e.enumIdx.remove(k) }
      val c = e.vpCnt(k)
      if (c == 1) { e.vpCnt.remove(k); cntFlip = true } else e.vpCnt(k) = c - 1
    }
    var wDelta = ring.zero
    if (e.subtreeY.isEmpty) {
      wDelta = ring.plus(newW, ring.negate(if (wasMember) oldW else ring.zero))
      if (wDelta != ring.zero) {
        val cur = ring.plus(e.vpAgg.getOrElse(k, ring.zero), wDelta)
        if (e.vpCnt.contains(k)) e.vpAgg(k) = cur else e.vpAgg.remove(k)
      } else if (!e.vpCnt.contains(k)) e.vpAgg.remove(k)
    }
    if (cntFlip || wDelta != ring.zero) touchParent(e, k, cntFlip)
  }

  /** Parent-side reaction to a child projection-view change under key `k`. */
  private def touchParent(child: Node, k: T, cntFlip: Boolean): Unit = {
    val p = child.parent
    if (p.isGen) {
      val existing = p.tuples.get(k)
      val wasMember = existing.exists(member(p, _))
      val oldW = existing.map(_.w).getOrElse(ring.zero)
      if (cntFlip) {
        val st = existing.getOrElse { val s = new NState(0, ring.zero); p.tuples(k) = s; s }
        if (child.vpCnt.contains(k)) st.count += 1 else st.count -= 1
      }
      settle(p, k, wasMember, oldW)
      if (p.tuples.get(k).exists(_.count == 0)) p.tuples.remove(k)
    } else {
      p.childIdx(child.childPos).get(k) match {
        case None => ()
        case Some(set) =>
          for (tt <- set) { // settle never touches p.childIdx
            val st = p.tuples(tt)
            val wasMember = member(p, st)
            val oldW = st.w
            if (cntFlip) {
              if (child.vpCnt.contains(k)) st.count += 1 else st.count -= 1
            }
            settle(p, tt, wasMember, oldW)
          }
      }
    }
  }

  /** Apply one base-table update. */
  def update(u: Upd): Unit = {
    val e = plan.atomNode(u.rel)
    Tup.checkArity(u.rel, e.attrs.length, u.t)
    if (cq.atomFilters.get(u.rel).exists(f => !f(u.t))) return
    if (u.isInsert) {
      if (e.tuples.contains(u.t)) return
      var cnt = 0
      var i = 0
      while (i < e.children.length) {
        val k = Tup.proj(u.t, e.childKeyIdx(i))
        e.childIdx(i).getOrElseUpdate(k, mutable.HashSet.empty) += u.t
        if (e.children(i).vpCnt.contains(k)) cnt += 1
        i += 1
      }
      e.tuples(u.t) = new NState(cnt, ring.zero)
      settle(e, u.t, wasMember = false, ring.zero)
    } else {
      val st = e.tuples.getOrElse(u.t, null)
      if (st == null) return
      val wasMember = member(e, st)
      val oldW = st.w
      e.tuples.remove(u.t)
      var i = 0
      while (i < e.children.length) {
        val k = Tup.proj(u.t, e.childKeyIdx(i))
        e.childIdx(i).get(k).foreach { s => s -= u.t; if (s.isEmpty) e.childIdx(i).remove(k) }
        i += 1
      }
      settle(e, u.t, wasMember, oldW)
    }
  }

  /** Current aggregate table: output tuple → aggregate value. Enumerates
    * output-carrying nodes only; aggregated-away subtrees contribute their
    * maintained `vpAgg` factors (formula (12)).
    */
  def results(): Map[T, A] = {
    val out = mutable.HashMap.empty[T, A]
    val slots = new Array[Any](cq.output.length)

    def writeY(e: Node, t: T): Unit = {
      var i = 0
      while (i < e.yIdx.length) { slots(e.yOut(i)) = t(e.yIdx(i)); i += 1 }
    }

    def descend(e: Node, t: T, acc: A, cont: A => Unit): Unit = {
      writeY(e, t)
      def go(i: Int, a: A): Unit = {
        if (i == e.outKids.length) cont(a)
        else {
          val c = e.outKids(i)
          c.enumIdx.get(Tup.proj(t, e.childKeyIdx(c.childPos))).foreach { set =>
            for (tt <- set) descend(c, tt, a, go(i + 1, _))
          }
        }
      }
      go(0, ring.times(acc, weight(e, t)))
    }

    for ((t, st) <- root.tuples if member(root, st)) {
      descend(root, t, ring.one, { a =>
        val res = ArraySeq.unsafeWrapArray(slots.clone()): T
        out(res) = ring.plus(out.getOrElse(res, ring.zero), a)
      })
    }
    out.filter(_._2 != ring.zero).toMap
  }
}
