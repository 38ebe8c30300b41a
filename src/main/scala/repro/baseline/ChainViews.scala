package repro.baseline

import repro.core.{CQ, Dict, IncrementalEngine, LongIntAcc, LongIntMap, LongObjMap, LongSet, LongTable, Proj, Tup, Upd}
import repro.core.Tup.T
import scala.collection.immutable.ArraySeq

/** What both chain-of-views baselines share: the update preamble (atom
  * lookup, atom filters, and base relations that turn ineffective updates
  * into no-ops), the value dictionary, the per-update op budget, and the
  * query result as signed derivation counts. A subclass says how one
  * effective update propagates.
  *
  * Tuples are encoded as in [[repro.core.CrownEngine]]: values get ids in
  * one reference-counted [[Dict]], a tuple of arity ≤ 2 packs its ids into
  * one `Long` handle and a stored tuple of arity ≥ 3 is a wide entry of the
  * dictionary. An effective insert retains its values before it propagates;
  * a delete releases them after, so a deleted result can still be decoded.
  * Every view entry, result entry and index key that holds a wide tuple
  * holds one reference to it. Results are decoded only when they are
  * emitted, enumerated or passed to the query's result filter.
  *
  * A [[BudgetExceeded]] thrown mid-update leaves the views half-mutated, so
  * it also marks the engine dead: every later `processUpdate` and
  * `enumerateFull` throws `IllegalStateException`.
  */
abstract class ChainEngine(val cq: CQ, maxOpsPerUpdate: Long) extends IncrementalEngine {

  private[baseline] val dict = new Dict
  private val atomPos: Map[String, Int] = cq.atoms.map(_.name).zipWithIndex.toMap
  private val base: Array[LongSet] = Array.fill(cq.atoms.size)(new LongSet(64))
  private val filters: Array[T => Boolean] = cq.atoms.map(a => cq.atomFilters.getOrElse(a.name, null)).toArray
  // the ids of the tuple being updated, per atom
  private val atomIds: Array[Array[Int]] = cq.atoms.map(a => new Array[Int](a.attrs.length)).toArray
  /** The query result: output tuple → number of derivations (never 0). */
  private val results = new LongIntMap(64)
  private[baseline] val wideOut = Dict.isWide(cq.output.length)
  private val outIds = new Array[Int](cq.output.length)
  // 0, 1, 2, ...: the positions `unpack` writes a handle's ids to
  private val ident = Array.range(0, cq.allVars.length)
  private val resultFilter: T => Boolean = cq.resultFilter.orNull
  private var ops = 0L
  private var opsAtUpdateStart = 0L
  private var dead = false

  override final def workOps: Long = ops

  /** Ids in use in the engine's dictionary: values and wide tuples. */
  final def dictEntries: Long = dict.entries

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

  /** Propagate one effective update of atom `j`, the tuple with handle `t`
    * and ids `ids` (`sign` +1 for an insert, -1 for a delete); returns the
    * number of results emitted.
    */
  protected def propagate(j: Int, t: Long, ids: Array[Int], sign: Int, emit: T => Unit): Long

  /** Entries held in views, besides the base relations and the result. */
  protected def viewEntries: Long

  /** Write the ids of handle `h`, a tuple of `ids.length` values, to `ids`. */
  private[baseline] final def unpack(h: Long, ids: Array[Int]): Unit =
    dict.unpack(h, ids.length, ids, ident)

  /** The handle of the tuple of ids `ids`; a wide one with a new reference. */
  private[baseline] final def intern(ids: Array[Int]): Long =
    if (Dict.isWide(ids.length)) dict.wideAcquire(ids).toLong else ChainViews.pack(ids)

  /** Add `c` (not 0) to the count of tuple `m` in `counts` and return the
    * new count; a `wide` `m` holds one reference while it is counted.
    */
  private[baseline] final def count(counts: LongIntMap, wide: Boolean, m: Long, c: Int): Int = {
    val nw = counts.addTo(m, c)
    if (nw == 0) counts.remove(m)
    if (wide) {
      if (nw == c) dict.retain(m.toInt)
      else if (nw == 0) dict.release(m.toInt)
    }
    nw
  }

  /** Add `c` to tuple `m` in the delta `delta`, in which each `wide` tuple
    * holds one reference: `m`'s own new one, unless it is there already.
    */
  private[baseline] final def addDelta(delta: LongIntAcc, wide: Boolean, m: Long, c: Int): Unit = {
    val had = delta.size
    delta.addTo(m, c)
    if (wide && delta.size == had) dict.release(m.toInt)
  }

  /** Empty `delta`, releasing its tuples if they are `wide`. */
  private[baseline] final def discard(delta: LongIntAcc, wide: Boolean): Unit = {
    if (wide) {
      var i = 0
      while (i < delta.size) { dict.release(delta.keyAt(i).toInt); i += 1 }
    }
    delta.clear()
  }

  /** The output tuple of result handle `h`, in the values it was given with. */
  private def decode(h: Long): T = {
    unpack(h, outIds)
    val a = new Array[Any](outIds.length)
    var i = 0
    while (i < a.length) { a(i) = dict.decode(outIds(i)); i += 1 }
    ArraySeq.unsafeWrapArray(a)
  }

  /** Add `c` derivations of result `out` (ordered by the query's output) to
    * the result, emitting it when its count moves between 0 and non-zero.
    * Returns the number emitted; results the query's filter rejects are
    * dropped.
    */
  private[baseline] final def addResult(out: Long, c: Int, emit: T => Unit): Long = {
    val decoded = if (resultFilter == null) null else decode(out)
    if (decoded != null && !resultFilter(decoded)) 0L
    else {
      tick()
      val nw = count(results, wideOut, out, c)
      if (nw != 0 && nw != c) 0L // the count stayed non-zero
      else { emit(if (decoded != null) decoded else decode(out)); 1L }
    }
  }

  override final def processUpdate(u: Upd)(emit: T => Unit): Long = {
    checkAlive()
    opsAtUpdateStart = ops
    val j = atomPos.getOrElse(u.rel,
      throw new IllegalArgumentException(s"$name: unknown relation ${u.rel}"))
    val ids = atomIds(j)
    Tup.checkArity(u.rel, ids.length, u.t)
    if (filters(j) != null && !filters(j)(u.t)) return 0L
    // look the values up first: an unsupported one is refused before any change
    val known = dict.lookupAll(u.t, u.rel, ids)
    val wide = Dict.isWide(ids.length)
    val t = if (!known) -1L else if (wide) dict.wideLookup(ids).toLong else ChainViews.pack(ids)
    if (u.isInsert) {
      if (t >= 0 && base(j).contains(t)) return 0L
      dict.acquireAll(u.t, u.rel, ids)
      val h = intern(ids)
      base(j).add(h)
      propagate(j, h, ids, 1, emit)
    } else {
      if (t < 0 || !base(j).remove(t)) return 0L
      val n = propagate(j, t, ids, -1, emit)
      if (wide) dict.release(t.toInt)
      dict.releaseAll(ids)
      n
    }
  }

  override final def enumerateFull(cb: T => Boolean): Unit = {
    checkAlive()
    var s = results.nextSlot(0)
    while (s >= 0 && cb(decode(results.keyAt(s)))) s = results.nextSlot(s + 1)
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
  * The chain keeps its first `depth` levels. Each kept level is stored only
  * in its index: its tuples and their counts, grouped by their join key with
  * the next atom in `order`. Each kept atom after the first is indexed by
  * its join key with the level below it. A level that covers
  * every atom (`depth` = all of them) is the query result: it is kept in
  * output-attribute order, in the engine's result counts.
  *
  * Attribute names are looked up here, at construction only; propagation
  * gathers ids through the compiled index arrays. One update's tuples of a
  * level are summed in a reused [[LongIntAcc]] as they are made, so a delta
  * costs its own entries, not the largest delta's; a wide one holds a
  * reference there until the next level has been made from it. The base
  * index holds the handles of the engine's base tuples, which hold their
  * own references.
  */
final class ChainViews(engine: ChainEngine, order: Vector[Int], depth: Int) {
  private val dict = engine.dict
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
  private val arity: Array[Int] = attrs.map(_.length).toArray
  private val atomArity: Array[Int] = atoms.map(_.attrs.length).toArray
  private val wideLevel: Array[Boolean] = arity.map(Dict.isWide)
  private val wideKey: Array[Boolean] = join.map(k => Dict.isWide(k.length)).toArray
  /** Projections onto `join(l)`: of the atom at level `l`, and of level `l - 1`. */
  val keyOfAtom: Array[Proj] =
    Array.tabulate(n)(l => new Proj(dict, atomArity(l), Tup.projIdx(atoms(l).attrs, join(l))))
  private val keyOfPrev: Array[Proj] = Array.tabulate(n)(l =>
    if (l == 0) null else new Proj(dict, arity(l - 1), Tup.projIdx(attrs(l - 1), join(l))))
  /** Level `l`'s ids from those of a level `l - 1` tuple and of its atom's. */
  private val fromPrev: Array[Array[Int]] = Array.tabulate(n) { l =>
    attrs(l).map(a => if (l == 0) -1 else attrs(l - 1).indexOf(a)).toArray
  }
  private val fromAtom: Array[Array[Int]] =
    Array.tabulate(n)(l => attrs(l).map(atoms(l).attrs.indexOf).toArray)
  private val level: Array[Int] = Array.tabulate(n)(order.indexOf(_))

  // a full chain's top level is the engine's result, not a view of its own
  private val kept = if (depth == n) depth - 1 else depth
  private val index = Array.fill(kept)(new LongObjMap[LongIntMap](64))
  private val baseIndex = Array.fill(depth)(new LongObjMap[LongSet](64))
  private val newCounts: () => LongIntMap = () => new LongIntMap
  private val newSet: () => LongSet = () => new LongSet

  // reused buffers: per level, the ids of a level l - 1 tuple, of an atom tuple and
  // of the level l tuple made from them; the deltas of two adjacent levels
  private val prevIds = Array.tabulate(n)(l => new Array[Int](if (l == 0) 0 else arity(l - 1)))
  private val atomIds = Array.tabulate(n)(l => new Array[Int](atomArity(l)))
  private val levelIds = Array.tabulate(n)(l => new Array[Int](arity(l)))
  private var cur = new LongIntAcc
  private var next = new LongIntAcc

  /** Level `l`'s tuples whose join key with the next atom is `key`, or null. */
  def bucket(l: Int, key: Long): LongIntMap = index(l).get(key)

  def entries: Long = index.iterator.map(LongObjMap.bucketSizes).sum

  /** Propagate an effective update of atom `j` (handle `t`, ids `tIds`) up
    * the chain; returns the number of results emitted (only a full chain
    * emits).
    */
  def propagate(j: Int, t: Long, tIds: Array[Int], sign: Int, emit: T => Unit): Long = {
    val l0 = level(j)
    if (l0 >= depth) return 0L
    if (l0 > 0) {
      val p = keyOfAtom(l0)
      val bi = baseIndex(l0)
      if (sign > 0) bucketFor(bi, p, wideKey(l0), p.fromIds(tIds), tIds, newSet).add(t)
      else {
        val key = p.fromIds(tIds)
        val s = bi.get(key)
        s.remove(t)
        dropIfEmpty(bi, wideKey(l0), key, s)
      }
    }
    if (l0 == 0) engine.addDelta(cur, wideLevel(0), merge(0, 0L, tIds), sign)
    else {
      val b = bucket(l0 - 1, keyOfAtom(l0).fromIds(tIds))
      if (b != null) {
        var s = b.nextSlot(0)
        while (s >= 0) {
          engine.tick()
          engine.addDelta(cur, wideLevel(l0), merge(l0, b.keyAt(s), tIds), b.valueAt(s) * sign)
          s = b.nextSlot(s + 1)
        }
      }
    }
    var emitted = 0L
    var l = l0
    while (l < depth && cur.nonEmpty) {
      if (l > l0) {
        val p = keyOfPrev(l)
        val bi = baseIndex(l)
        val ids = atomIds(l)
        var i = 0
        while (i < cur.size) {
          val m = cur.keyAt(i)
          val c = cur.valueAt(i)
          val b = bi.get(p(m))
          if (b != null) {
            var r = b.nextSlot(0)
            while (r >= 0) {
              engine.tick()
              engine.unpack(b.keyAt(r), ids)
              engine.addDelta(next, wideLevel(l), merge(l, m, ids), c)
              r = b.nextSlot(r + 1)
            }
          }
          i += 1
        }
        engine.discard(cur, wideLevel(l - 1))
        val d = cur; cur = next; next = d
      }
      var i = 0
      while (i < cur.size) {
        val m = cur.keyAt(i)
        val c = cur.valueAt(i)
        if (c != 0) {
          if (l < kept) { engine.tick(); add(l, m, c) }
          else emitted += engine.addResult(m, c, emit)
        }
        i += 1
      }
      l += 1
    }
    // the delta of level l - 1 (or of l0, if nothing reached it: then empty)
    engine.discard(cur, cur.nonEmpty && wideLevel(l - 1))
    emitted
  }

  /** The handle of level `l`'s tuple made from level `l - 1`'s tuple `v`
    * and the atom's tuple of ids `tIds`; a wide one with a new reference.
    */
  private def merge(l: Int, v: Long, tIds: Array[Int]): Long = {
    val pIds = prevIds(l)
    if (l > 0) engine.unpack(v, pIds)
    val ids = levelIds(l)
    ChainViews.gather(fromPrev(l), fromAtom(l), pIds, tIds, ids)
    engine.intern(ids)
  }

  /** Add `c` to level `l`'s count of `m` in its bucket, dropping a bucket
    * left empty. A count that falls to 0 was in its bucket before, so `key`
    * is that bucket's key (a wide key without an id reads -1).
    */
  private def add(l: Int, m: Long, c: Int): Unit = {
    val p = keyOfPrev(l + 1)
    val idx = index(l)
    val wk = wideKey(l + 1)
    val key = p(m)
    val b = bucketFor(idx, p, wk, key, if (wk) dict.wideIds(m.toInt) else null, newCounts)
    if (engine.count(b, wideLevel(l), m, c) == 0) dropIfEmpty(idx, wk, key, b)
  }

  /** The bucket of `key` in `idx`, made if absent. A wide key is looked up
    * by the ids `p` projects from `src`: -1 if it has no id yet; a new
    * bucket's wide key holds one reference.
    */
  private def bucketFor[B <: LongTable](idx: LongObjMap[B], p: Proj, wide: Boolean, key: Long,
                                        src: Array[Int], make: () => B): B = {
    val b = idx.get(key)
    if (b != null) b
    else idx.getOrElseUpdate(if (wide) dict.wideAcquire(p.gather(src)).toLong else key, make)
  }

  /** Remove `key`'s bucket `b` from `idx` if it is empty, with the
    * reference of a wide key.
    */
  private def dropIfEmpty(idx: LongObjMap[_ <: LongTable], wide: Boolean, key: Long, b: LongTable): Unit =
    if (b.isEmpty) {
      idx.remove(key)
      if (wide) dict.release(key.toInt)
    }
}

object ChainViews {

  /** Write to `out` the ids whose k-th is `a(fromA(k))`, or `b(fromB(k))`
    * where `fromA(k) < 0`.
    */
  def gather(fromA: Array[Int], fromB: Array[Int], a: Array[Int], b: Array[Int],
             out: Array[Int]): Unit = {
    var k = 0
    while (k < out.length) {
      out(k) = if (fromA(k) >= 0) a(fromA(k)) else b(fromB(k))
      k += 1
    }
  }

  /** The handle of a tuple of at most two ids. */
  def pack(ids: Array[Int]): Long =
    if (ids.length == 0) 0L
    else if (ids.length == 1) ids(0).toLong
    else Dict.pack(ids(0), ids(1))
}
