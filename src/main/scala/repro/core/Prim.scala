package repro.core

/** Open-addressing hash tables keyed by primitive `Long`s, the storage of
  * [[CrownEngine]]'s views: an encoded tuple is one `Long` handle (see
  * [[Dict]]), so a view is a flat key array with no boxing, no per-entry
  * node and no wrapper object.
  *
  * Linear probing over a power-of-two slot array at most half full; a
  * removal shifts the following entries of its run back (backward-shift
  * deletion), so no tombstones accumulate. Key `0` marks an empty slot, so
  * an entry with key `0` (the packed empty projection) lives in one extra
  * slot at index `capacity`.
  *
  * The capacity doubles when an insert would fill more than half of it. It
  * halves, never below the initial capacity, when a removal leaves the
  * table non-empty but under 1/8 full, or when `clear()` finds it under 1/8
  * full, so iterating costs time in the live size, not the peak size. The
  * gap between the two thresholds keeps the amortised cost of a resize O(1).
  *
  * Iteration is by slot: `nextSlot(from)` is the first used slot at or
  * after `from`, or -1; `keyAt`/`valueAt` read it. A table must not be
  * changed while it is iterated.
  */
abstract class LongTable(initialCapacity: Int) {
  require(initialCapacity >= 2 && Integer.bitCount(initialCapacity) == 1,
    s"capacity $initialCapacity is not a power of two >= 2")

  private var keys: Array[Long] = new Array[Long](initialCapacity + 1)
  private var mask: Int = initialCapacity - 1
  private var hasZero: Boolean = false
  private var count: Int = 0

  final def size: Int = count
  final def isEmpty: Boolean = count == 0
  final def nonEmpty: Boolean = count != 0
  private[core] final def capacity: Int = mask + 1

  /** The slot where the probe for `k` (not 0) starts. */
  @inline private[core] final def slot0(k: Long): Int = {
    val h = k * 0x9E3779B97F4A7C15L
    (h ^ (h >>> 32) ^ (h >>> 16)).toInt & mask
  }

  /** The slot holding `k`, or -1. */
  protected final def find(k: Long): Int =
    if (k == 0L) { if (hasZero) capacity else -1 }
    else {
      val ks = keys
      var i = slot0(k)
      while (true) {
        val c = ks(i)
        if (c == k) return i
        if (c == 0L) return -1
        i = (i + 1) & mask
      }
      -1
    }

  final def contains(k: Long): Boolean = find(k) >= 0

  /** Remove `k`; false if it was absent. */
  final def remove(k: Long): Boolean = {
    val s = find(k)
    if (s >= 0) removeAt(s)
    s >= 0
  }

  /** The slot holding `k`, or `-(s + 1)` after claiming the free slot `s`
    * for it (the caller then writes its value there).
    */
  protected final def claim(k: Long): Int = {
    if (k == 0L) {
      if (hasZero) return capacity
      hasZero = true; count += 1
      return -(capacity + 1)
    }
    var i = slot0(k)
    while (true) {
      val c = keys(i)
      if (c == k) return i
      if (c == 0L) {
        if (2 * (count + 1) > capacity) { resize(2 * capacity); return claim(k) }
        keys(i) = k; count += 1
        return -(i + 1)
      }
      i = (i + 1) & mask
    }
    -1
  }

  /** Remove the entry in slot `s`, shifting back the rest of its run. */
  protected final def removeAt(s: Int): Unit = {
    count -= 1
    if (s == capacity) { hasZero = false; clearValue(s) }
    else {
      var gap = s
      var i = (s + 1) & mask
      while (keys(i) != 0L) {
        val home = slot0(keys(i))
        // the entry at i may fill the gap iff its home slot is not in (gap, i]
        if (((i - home) & mask) >= ((i - gap) & mask)) {
          keys(gap) = keys(i)
          moveValue(i, gap)
          gap = i
        }
        i = (i + 1) & mask
      }
      keys(gap) = 0L
      clearValue(gap)
    }
    // an emptied table is kept as is: most are dropped by their owner
    if (count != 0 && underfull) resize(capacity / 2)
  }

  private def underfull: Boolean = 8 * count < capacity && capacity > initialCapacity

  /** Move every entry into a fresh slot array of `newCap` slots. */
  private def resize(newCap: Int): Unit = {
    val oldKeys = keys
    val oldCap = capacity
    keys = new Array[Long](newCap + 1)
    mask = newCap - 1
    beginResize(newCap + 1)
    if (count != 0) {
      var i = 0
      while (i < oldCap) {
        val k = oldKeys(i)
        if (k != 0L) {
          var j = slot0(k)
          while (keys(j) != 0L) j = (j + 1) & mask
          keys(j) = k
          restoreValue(i, j)
        }
        i += 1
      }
      if (hasZero) restoreValue(oldCap, newCap)
    }
    endResize()
  }

  /** Remove every entry; the capacity halves if the table was less than
    * 1/8 full, so a buffer steps back down after one large use.
    */
  final def clear(): Unit = if (count != 0) {
    val shrink = underfull
    hasZero = false
    count = 0
    if (shrink) resize(capacity / 2)
    else {
      java.util.Arrays.fill(keys, 0L)
      clearValues()
    }
  }

  final def nextSlot(from: Int): Int = {
    var i = from
    val cap = capacity
    while (i < cap) { if (keys(i) != 0L) return i; i += 1 }
    if (i == cap && hasZero) cap else -1
  }
  final def keyAt(s: Int): Long = keys(s)

  // value storage hooks of the maps
  protected def moveValue(from: Int, to: Int): Unit = ()
  protected def clearValue(s: Int): Unit = ()
  protected def clearValues(): Unit = ()
  protected def beginResize(slots: Int): Unit = ()          // keep the old values, allocate new
  protected def restoreValue(from: Int, to: Int): Unit = () // old slot -> new slot
  protected def endResize(): Unit = ()                      // drop the old values
}

/** A set of `Long`s. */
final class LongSet(initialCapacity: Int = 4) extends LongTable(initialCapacity) {
  /** Add `k`; false if it was present. */
  def add(k: Long): Boolean = claim(k) < 0
}

/** A map from `Long` to `Int` (counters). */
final class LongIntMap(initialCapacity: Int = 4) extends LongTable(initialCapacity) {
  private var vals = new Array[Int](initialCapacity + 1)
  private var old: Array[Int] = _

  /** The value of `k`, or `default`. */
  def get(k: Long, default: Int): Int = {
    val s = find(k)
    if (s >= 0) vals(s) else default
  }
  def put(k: Long, v: Int): Unit = {
    val s = claim(k)
    vals(if (s >= 0) s else -s - 1) = v
  }
  /** Add `d` to the value of `k` (0 if absent) and return the sum. */
  def addTo(k: Long, d: Int): Int = {
    val s = claim(k)
    if (s >= 0) { vals(s) += d; vals(s) }
    else { vals(-s - 1) = d; d }
  }
  def valueAt(s: Int): Int = vals(s)

  override protected def moveValue(from: Int, to: Int): Unit = vals(to) = vals(from)
  override protected def beginResize(slots: Int): Unit = { old = vals; vals = new Array[Int](slots) }
  override protected def restoreValue(from: Int, to: Int): Unit = vals(to) = old(from)
  override protected def endResize(): Unit = old = null
}

/** A map from `Long` to objects; `get` returns null for an absent key. */
final class LongObjMap[V <: AnyRef](initialCapacity: Int = 4) extends LongTable(initialCapacity) {
  private var vals = new Array[AnyRef](initialCapacity + 1)
  private var old: Array[AnyRef] = _

  /** The value of `k`, or null. */
  def get(k: Long): V = {
    val s = find(k)
    if (s >= 0) vals(s).asInstanceOf[V] else null.asInstanceOf[V]
  }
  /** The value of `k`, first storing `make()` (not null) if absent. */
  def getOrElseUpdate(k: Long, make: () => V): V = {
    val s = claim(k)
    if (s >= 0) vals(s).asInstanceOf[V]
    else {
      val v = make()
      vals(-s - 1) = v
      v
    }
  }
  def valueAt(s: Int): V = vals(s).asInstanceOf[V]

  override protected def moveValue(from: Int, to: Int): Unit = vals(to) = vals(from)
  override protected def clearValue(s: Int): Unit = vals(s) = null
  override protected def clearValues(): Unit = java.util.Arrays.fill(vals, null)
  override protected def beginResize(slots: Int): Unit = { old = vals; vals = new Array[AnyRef](slots) }
  override protected def restoreValue(from: Int, to: Int): Unit = vals(to) = old(from)
  override protected def endResize(): Unit = old = null
}

object LongObjMap {
  /** The entries in all of `m`'s buckets. */
  def bucketSizes(m: LongObjMap[_ <: LongTable]): Long = {
    var sum = 0L
    var s = m.nextSlot(0)
    while (s >= 0) { sum += m.valueAt(s).size; s = m.nextSlot(s + 1) }
    sum
  }
}

/** Sums of `Int`s by `Long` key, for one update's deltas: a sparse set in
  * the manner of Briggs & Torczon (1993). The entries sit in dense arrays in
  * the order their keys were first added, and an open-addressing index of
  * entry numbers finds a key's entry. Entry `i` is read with `keyAt(i)` and
  * `valueAt(i)` for `i` in `0 until size`. An entry whose sum returns to 0 is
  * kept until `clear()`.
  *
  * `clear()` zeroes only the index slots its entries used, and the capacity
  * never shrinks: a buffer reused across updates of very different sizes
  * costs each use its own entries, not the largest use's, and is never
  * reallocated once it has grown to the largest.
  */
final class LongIntAcc(initialCapacity: Int = 16) {
  require(initialCapacity >= 2 && Integer.bitCount(initialCapacity) == 1,
    s"capacity $initialCapacity is not a power of two >= 2")

  private var keys = new Array[Long](initialCapacity)
  private var vals = new Array[Int](initialCapacity)
  // the index slot of each entry, so that clear() finds it without a probe
  private var slots = new Array[Int](initialCapacity)
  private var n = 0
  // index(s) is 1 + the entry number whose key's probe ends at slot s, or 0
  private var index = new Array[Int](2 * initialCapacity)
  private var mask = index.length - 1

  def size: Int = n
  def isEmpty: Boolean = n == 0
  def nonEmpty: Boolean = n != 0
  def keyAt(i: Int): Long = keys(i)
  def valueAt(i: Int): Int = vals(i)
  /** Index slots; at least twice the most entries held at once. */
  private[core] def capacity: Int = mask + 1

  @inline private def slot0(k: Long): Int = {
    val h = k * 0x9E3779B97F4A7C15L
    (h ^ (h >>> 32) ^ (h >>> 16)).toInt & mask
  }

  /** The entry number of `k`, or `-(s + 1)` where `s` is the free slot that
    * ends its probe.
    */
  private def probe(k: Long): Int = {
    var s = slot0(k)
    while (true) {
      val e = index(s)
      if (e == 0) return -(s + 1)
      if (keys(e - 1) == k) return e - 1
      s = (s + 1) & mask
    }
    -1
  }

  /** Make `k` entry `n` with sum `v`, in the free slot `s`. */
  private def append(k: Long, v: Int, s: Int): Unit = {
    if (n == keys.length) {
      keys = java.util.Arrays.copyOf(keys, 2 * n)
      vals = java.util.Arrays.copyOf(vals, 2 * n)
      slots = java.util.Arrays.copyOf(slots, 2 * n)
    }
    keys(n) = k; vals(n) = v; slots(n) = s; index(s) = n + 1
    n += 1
    if (2 * n > capacity) rehash(2 * capacity)
  }

  private def rehash(newCap: Int): Unit = {
    index = new Array[Int](newCap)
    mask = newCap - 1
    var i = 0
    while (i < n) {
      var s = slot0(keys(i))
      while (index(s) != 0) s = (s + 1) & mask
      index(s) = i + 1; slots(i) = s
      i += 1
    }
  }

  def contains(k: Long): Boolean = probe(k) >= 0

  /** Add `k` with sum 0 if absent; false if it was present. */
  def add(k: Long): Boolean = {
    val e = probe(k)
    if (e < 0) append(k, 0, -e - 1)
    e < 0
  }

  /** Add `d` to the sum of `k` (0 if absent) and return the new sum. */
  def addTo(k: Long, d: Int): Int = {
    val e = probe(k)
    if (e >= 0) { vals(e) += d; vals(e) }
    else { append(k, d, -e - 1); d }
  }

  /** Remove every entry, keeping the capacity. */
  def clear(): Unit = {
    var i = 0
    while (i < n) { index(slots(i)) = 0; i += 1 }
    n = 0
  }
}

/** A growable buffer of `Long`s (the per-update delta lists). */
final class LongBuf {
  private var a = new Array[Long](8)
  private var n = 0
  def length: Int = n
  def apply(i: Int): Long = a(i)
  def +=(k: Long): Unit = {
    if (n == a.length) a = java.util.Arrays.copyOf(a, 2 * n)
    a(n) = k; n += 1
  }
  def clear(): Unit = n = 0
}
