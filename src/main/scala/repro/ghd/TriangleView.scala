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

  private val e1 = mutable.HashSet.empty[T] // (a,b)
  private val e2 = mutable.HashSet.empty[T] // (b,c)
  private val e3 = mutable.HashSet.empty[T] // (c,a)
  private val e1ByA = mutable.HashMap.empty[Any, mutable.HashSet[T]]
  private val e1ByB = mutable.HashMap.empty[Any, mutable.HashSet[T]]
  private val e2ByB = mutable.HashMap.empty[Any, mutable.HashSet[T]]
  private val e2ByC = mutable.HashMap.empty[Any, mutable.HashSet[T]]
  private val e3ByC = mutable.HashMap.empty[Any, mutable.HashSet[T]]
  private val e3ByA = mutable.HashMap.empty[Any, mutable.HashSet[T]]

  var workOps: Long = 0L

  private def idxAdd(m: mutable.HashMap[Any, mutable.HashSet[T]], k: Any, t: T): Unit =
    m.getOrElseUpdate(k, mutable.HashSet.empty) += t
  private def idxDel(m: mutable.HashMap[Any, mutable.HashSet[T]], k: Any, t: T): Unit =
    m.get(k).foreach { s => s -= t; if (s.isEmpty) m.remove(k) }

  def spaceEntries: Long = 2L * (e1.size + e2.size + e3.size)

  /** Apply an edge update to one role; returns triangle deltas (a,b,c) with
    * the same sign as the update. Ineffective updates return empty.
    */
  def update(role: String, t: T, isInsert: Boolean): Vector[T] = {
    Tup.checkArity(role, 2, t)
    val out = Vector.newBuilder[T]
    role match {
      case `role1` => // t = (a,b): join E2(b,·) with E3(·,a)
        if (isInsert) { if (!e1.add(t)) return Vector.empty }
        else { if (!e1.remove(t)) return Vector.empty }
        val (a, b) = (t(0), t(1))
        if (isInsert) { idxAdd(e1ByA, a, t); idxAdd(e1ByB, b, t) }
        else { idxDel(e1ByA, a, t); idxDel(e1ByB, b, t) }
        for (s2 <- e2ByB.get(b).toSeq; t2 <- s2) {
          workOps += 1
          val c = t2(1)
          if (e3.contains(Tup(c, a))) out += Tup(a, b, c)
        }
      case `role2` => // t = (b,c): join E3(c,·) with E1(·,b)
        if (isInsert) { if (!e2.add(t)) return Vector.empty }
        else { if (!e2.remove(t)) return Vector.empty }
        val (b, c) = (t(0), t(1))
        if (isInsert) { idxAdd(e2ByB, b, t); idxAdd(e2ByC, c, t) }
        else { idxDel(e2ByB, b, t); idxDel(e2ByC, c, t) }
        for (s3 <- e3ByC.get(c).toSeq; t3 <- s3) {
          workOps += 1
          val a = t3(1)
          if (e1.contains(Tup(a, b))) out += Tup(a, b, c)
        }
      case `role3` => // t = (c,a): join E1(a,·) with E2(·,c)
        if (isInsert) { if (!e3.add(t)) return Vector.empty }
        else { if (!e3.remove(t)) return Vector.empty }
        val (c, a) = (t(0), t(1))
        if (isInsert) { idxAdd(e3ByC, c, t); idxAdd(e3ByA, a, t) }
        else { idxDel(e3ByC, c, t); idxDel(e3ByA, a, t) }
        for (s1 <- e1ByA.get(a).toSeq; t1 <- s1) {
          workOps += 1
          val b = t1(1)
          if (e2.contains(Tup(b, c))) out += Tup(a, b, c)
        }
      case other => throw new IllegalArgumentException(s"unknown role $other")
    }
    out.result()
  }
}
