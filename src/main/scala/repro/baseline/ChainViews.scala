package repro.baseline

import repro.core.{CQ, IncrementalEngine, Tup, Upd}
import repro.core.Tup.T
import scala.collection.immutable.ArraySeq
import scala.collection.mutable

/** What both chain-of-views baselines share: the update preamble (atom
  * lookup, atom filters, and base relations that turn ineffective updates
  * into no-ops), the per-update op budget, and the query result as signed
  * derivation counts. A subclass says how one effective update propagates.
  *
  * A [[BudgetExceeded]] thrown mid-update leaves the views half-mutated, so
  * it also marks the engine dead: every later `processUpdate` and
  * `enumerateFull` throws `IllegalStateException`.
  */
abstract class ChainEngine(val cq: CQ, maxOpsPerUpdate: Long) extends IncrementalEngine {

  private val atomPos: Map[String, Int] = cq.atoms.map(_.name).zipWithIndex.toMap
  private val base: Array[mutable.HashSet[T]] = Array.fill(cq.atoms.size)(mutable.HashSet.empty)
  /** The query result: output tuple → number of derivations (never 0). */
  private val results = mutable.HashMap.empty[T, Int]
  private var ops = 0L
  private var opsAtUpdateStart = 0L
  private var dead = false

  override final def workOps: Long = ops

  /** Count one op (a counter change or an index entry read); abort the
    * update, and with it the engine, once the update exceeds its budget.
    */
  private[baseline] final def tick(): Unit = {
    ops += 1
    if (ops - opsAtUpdateStart > maxOpsPerUpdate) {
      dead = true
      throw new BudgetExceeded(name, maxOpsPerUpdate)
    }
  }

  private def checkAlive(): Unit =
    if (dead) throw new IllegalStateException(
      s"$name aborted an update over its budget of $maxOpsPerUpdate ops; its views are half-updated")

  /** Propagate one effective update of atom `j` (`sign` +1 for an insert,
    * -1 for a delete); returns the number of results emitted.
    */
  protected def propagate(j: Int, t: T, sign: Int, emit: T => Unit): Long

  /** Entries held in views, besides the base relations and the result. */
  protected def viewEntries: Long

  /** Add `c` derivations of `out` (ordered by the query's output) to the
    * result, emitting `out` when its count moves between 0 and non-zero.
    * Returns the number emitted; results the query's filter rejects are
    * dropped.
    */
  private[baseline] final def addResult(out: T, c: Int, emit: T => Unit): Long =
    if (cq.resultFilter.exists(f => !f(out))) 0L
    else {
      tick()
      if (ChainViews.add(results, null, null, out, c)) { emit(out); 1L } else 0L
    }

  override final def processUpdate(u: Upd)(emit: T => Unit): Long = {
    checkAlive()
    opsAtUpdateStart = ops
    val j = atomPos.getOrElse(u.rel,
      throw new IllegalArgumentException(s"$name: unknown relation ${u.rel}"))
    Tup.checkArity(u.rel, cq.atoms(j).attrs.length, u.t)
    if (cq.atomFilters.get(u.rel).exists(f => !f(u.t))) return 0L
    if (u.isInsert) { if (!base(j).add(u.t)) return 0L }
    else { if (!base(j).remove(u.t)) return 0L }
    propagate(j, u.t, if (u.isInsert) 1 else -1, emit)
  }

  override final def enumerateFull(cb: T => Boolean): Unit = {
    checkAlive()
    val it = results.keysIterator
    var go = true
    while (go && it.hasNext) go = cb(it.next())
  }

  override final def spaceEntries: Long =
    base.map(_.size.toLong).sum + viewEntries + results.size
}

/** One left-deep chain of materialized views (§1, Fig 1(a)) over the atoms
  * of `engine.cq` taken in `order`, a permutation of all of them: level `l`
  * is `π(a_order(0) ⋈ ... ⋈ a_order(l))` with derivation counts, projected
  * onto the output attributes and the attributes that atoms outside the
  * level still join on (projection pushdown).
  *
  * The chain keeps its first `depth` levels. Each kept level is indexed by
  * its join key with the next atom in `order`, and each kept atom after
  * the first by its join key with the level below it. A level that covers
  * every atom (`depth` = all of them) is the query result: it is kept in
  * output-attribute order, in the engine's result counts.
  *
  * Attribute names are looked up here, at construction only; propagation
  * works on the compiled index arrays.
  */
final class ChainViews(engine: ChainEngine, order: Vector[Int], depth: Int) {
  private val n = order.size
  private val atoms = order.map(engine.cq.atoms)
  private val y = engine.cq.output

  /** Attributes of level `l`, in order of first appearance along the chain. */
  val attrs: Vector[Vector[String]] = Vector.tabulate(n) { l =>
    val need = y.toSet ++ atoms.drop(l + 1).flatMap(_.attrs)
    if (l == n - 1) y else atoms.take(l + 1).flatMap(_.attrs).distinct.filter(need.contains)
  }
  /** Join attributes of level `l - 1` with the atom at level `l` (l ≥ 1). */
  val join: Vector[Vector[String]] = Vector.tabulate(n) { l =>
    if (l == 0) Vector.empty else attrs(l - 1).filter(atoms(l).attrs.contains)
  }
  /** Projections onto `join(l)`: of the atom at level `l`, and of level `l - 1`. */
  val keyOfAtom: Array[Array[Int]] = Array.tabulate(n)(l => Tup.projIdx(atoms(l).attrs, join(l)))
  private val keyOfPrev: Array[Array[Int]] =
    Array.tabulate(n)(l => if (l == 0) Array.empty[Int] else Tup.projIdx(attrs(l - 1), join(l)))
  /** Level `l`'s tuple from one of level `l - 1` and one of its atom. */
  private val fromPrev: Array[Array[Int]] = Array.tabulate(n) { l =>
    attrs(l).map(a => if (l == 0) -1 else attrs(l - 1).indexOf(a)).toArray
  }
  private val fromAtom: Array[Array[Int]] =
    Array.tabulate(n)(l => attrs(l).map(atoms(l).attrs.indexOf).toArray)
  private val level: Array[Int] = Array.tabulate(n)(order.indexOf(_))

  // a full chain's top level is the engine's result, not a view of its own
  private val kept = if (depth == n) depth - 1 else depth
  private val view = Array.fill(kept)(mutable.HashMap.empty[T, Int])
  private val index = Array.fill(kept)(mutable.HashMap.empty[T, mutable.HashMap[T, Int]])
  private val baseIndex = Array.fill(depth)(mutable.HashMap.empty[T, mutable.HashSet[T]])

  /** Level `l`'s tuples whose join key with the next atom is `key`, or null. */
  def bucket(l: Int, key: T): mutable.HashMap[T, Int] = index(l).getOrElse(key, null)

  def entries: Long = view.map(_.size.toLong).sum

  /** Propagate an effective update `t` of atom `j` up the chain; returns
    * the number of results emitted (only a full chain emits).
    */
  def propagate(j: Int, t: T, sign: Int, emit: T => Unit): Long = {
    val l0 = level(j)
    if (l0 >= depth) return 0L
    val key = Tup.proj(t, keyOfAtom(l0))
    if (l0 > 0) {
      if (sign > 0) baseIndex(l0).getOrElseUpdate(key, mutable.HashSet.empty) += t
      else baseIndex(l0).get(key).foreach { s => s -= t; if (s.isEmpty) baseIndex(l0).remove(key) }
    }
    var delta = mutable.ArrayBuffer.empty[(T, Int)]
    if (l0 == 0) delta += ((ChainViews.merge(fromPrev(0), fromAtom(0), null, t), sign))
    else {
      val b = bucket(l0 - 1, key)
      if (b != null) b.foreachEntry { (v, c) =>
        engine.tick()
        delta += ((ChainViews.merge(fromPrev(l0), fromAtom(l0), v, t), c * sign))
      }
    }
    var emitted = 0L
    var l = l0
    while (l < depth && delta.nonEmpty) {
      if (l > l0) {
        val next = mutable.ArrayBuffer.empty[(T, Int)]
        for ((m, c) <- delta) {
          val s = baseIndex(l).getOrElse(Tup.proj(m, keyOfPrev(l)), null)
          if (s != null) s.foreach { t2 =>
            engine.tick()
            next += ((ChainViews.merge(fromPrev(l), fromAtom(l), m, t2), c))
          }
        }
        delta = next
      }
      delta = ChainViews.collapse(delta)
      for ((m, c) <- delta)
        if (l < kept) {
          engine.tick()
          ChainViews.add(view(l), index(l), keyOfPrev(l + 1), m, c)
        } else emitted += engine.addResult(m, c, emit)
      l += 1
    }
    emitted
  }
}

object ChainViews {

  /** The tuple whose k-th value is `v(fromV(k))`, or `t(fromT(k))` where
    * `fromV(k) < 0`.
    */
  def merge(fromV: Array[Int], fromT: Array[Int], v: T, t: T): T = {
    val a = new Array[Any](fromV.length)
    var k = 0
    while (k < fromV.length) {
      a(k) = if (fromV(k) >= 0) v(fromV(k)) else t(fromT(k))
      k += 1
    }
    ArraySeq.unsafeWrapArray(a)
  }

  /** Sum the counts of equal tuples, dropping those that cancel out. */
  def collapse(delta: mutable.ArrayBuffer[(T, Int)]): mutable.ArrayBuffer[(T, Int)] =
    if (delta.size <= 1) delta
    else {
      val sum = mutable.HashMap.empty[T, Int]
      for ((m, c) <- delta) sum(m) = sum.getOrElse(m, 0) + c
      val out = mutable.ArrayBuffer.empty[(T, Int)]
      sum.foreachEntry((m, c) => if (c != 0) out += ((m, c)))
      out
    }

  /** Add `c` to `m`'s count in `counts`, keeping `index` (keyed by the
    * projection `key` of each tuple; null for none) in step. Returns whether
    * the count moved between 0 and non-zero.
    */
  def add(counts: mutable.HashMap[T, Int], index: mutable.HashMap[T, mutable.HashMap[T, Int]],
          key: Array[Int], m: T, c: Int): Boolean = {
    val old = counts.getOrElse(m, 0)
    val nw = old + c
    if (nw == 0) counts.remove(m) else counts(m) = nw
    if (index != null) {
      val k = Tup.proj(m, key)
      if (nw == 0) index.get(k).foreach { b => b.remove(m); if (b.isEmpty) index.remove(k) }
      else index.getOrElseUpdate(k, mutable.HashMap.empty)(m) = nw
    }
    (old == 0) != (nw == 0)
  }
}
