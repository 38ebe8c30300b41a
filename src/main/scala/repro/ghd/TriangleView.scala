package repro.ghd

import repro.core.Tup
import repro.core.Tup.T
import scala.collection.mutable

/** Incrementally maintained triangle join
  * `B(a,b,c) = E1(a,b) ⋈ E2(b,c) ⋈ E3(c,a)` — the per-bag standard change
  * propagation of §7.1's GHD plan (each bag materializes its own join; the
  * O(N^1.5)/O(N) bounds of Lemma 7.2 come from the bag views, not CROWN).
  *
  * An update to one edge role joins the other two roles through hash indexes
  * (O(deg) per update) and emits the bag-level deltas, which the
  * [[BagEngine]] feeds into the cross-bag CROWN plan as base-table updates.
  */
final class TriangleView(role1: String, role2: String, role3: String) {

  // role i holds the edges (u, v) of the cycle a -> b -> c -> a starting at
  // its i-th attribute: E1 = (a,b), E2 = (b,c), E3 = (c,a)
  private val roles = Vector(role1, role2, role3)
  private val edges = Array.fill(3)(mutable.HashSet.empty[T])
  private val byFirst = Array.fill(3)(mutable.HashMap.empty[Any, mutable.HashSet[T]])

  var workOps: Long = 0L

  def spaceEntries: Long = 2L * edges.map(_.size).sum

  /** Apply an edge update to one role; returns triangle deltas (a,b,c) with
    * the same sign as the update. Ineffective updates return empty.
    */
  def update(role: String, t: T, isInsert: Boolean): Vector[T] = {
    Tup.checkArity(role, 2, t)
    val i = roles.indexOf(role)
    if (i < 0) throw new IllegalArgumentException(s"unknown role $role")
    val (u, v) = (t(0), t(1))
    if (isInsert) {
      if (!edges(i).add(t)) return Vector.empty
      byFirst(i).getOrElseUpdate(u, mutable.HashSet.empty) += t
    } else {
      if (!edges(i).remove(t)) return Vector.empty
      byFirst(i).get(u).foreach { s => s -= t; if (s.isEmpty) byFirst(i).remove(u) }
    }
    // join E_{i+1}(v, w) with E_{i+2}(w, u), then rotate (u, v, w) to (a, b, c)
    val (next, closing) = ((i + 1) % 3, (i + 2) % 3)
    val out = Vector.newBuilder[T]
    for (s <- byFirst(next).get(v).toSeq; e <- s) {
      workOps += 1
      val w = e(1)
      if (edges(closing).contains(Tup(w, u))) out += (i match {
        case 0 => Tup(u, v, w)
        case 1 => Tup(w, u, v)
        case _ => Tup(v, w, u)
      })
    }
    out.result()
  }
}
