package repro.core

import scala.collection.mutable

/** The value dictionary of one [[CrownEngine]]: it encodes the values of
  * base tuples to dense `Int` ids, and tuples of ids to one `Long` handle.
  *
  *   - `Byte`/`Short`/`Int`/`Long` values share one id space, so `Int 1`
  *     and `Long 1` are one value, as they are in an `ArraySeq` tuple.
  *   - `null`, `String` and other non-numeric values get ids through a
  *     generic map.
  *   - `Float`, `Double`, `Char`, `BigInt` and `BigDecimal` are rejected:
  *     they compare equal across types in ways one id per value cannot keep.
  *
  * A tuple of arity 0, 1 or 2 packs its ids into one `Long` ([[Dict.pack]]).
  * A tuple of arity 3 or more is a wide entry of the dictionary, whose id
  * is its handle. Values and wide entries are reference-counted: an id is
  * freed when its count drops to 0 and reused by a later entry. Decoding an
  * id gives back the object it was first created from.
  */
final class Dict {
  private val integral = new LongIntMap(64)                 // integral value -> id
  private val generic = mutable.HashMap.empty[AnyRef, Int]  // String, ... -> id
  private var nullId = -1
  private val wide = mutable.HashMap.empty[Dict.Wide, Int]  // id tuple -> id

  private var objs = new Array[AnyRef](64)      // id -> its value (null: the null value or wide)
  private var parts = new Array[Array[Int]](64) // id -> ids of a wide entry, else null
  private var refs = new Array[Int](64)         // id -> reference count, 0 if free
  private var freeIds = new Array[Int](16)
  private var nFree = 0
  private var next = 0                          // ids below `next` have been used
  private var live = 0

  /** Ids in use: values and wide entries. */
  def entries: Int = live

  /** The id of value `v`, or -1 if it has none. `rel` names the relation in
    * the error raised for an unsupported type.
    */
  def lookup(v: Any, rel: String): Int = v match {
    case null => nullId
    case l: Long => integral.get(l, -1)
    case i: Int => integral.get(i.toLong, -1)
    case s: Short => integral.get(s.toLong, -1)
    case b: Byte => integral.get(b.toLong, -1)
    case _: Double | _: Float | _: Char | _: BigInt | _: BigDecimal => reject(v, rel)
    case r: AnyRef => generic.getOrElse(r, -1)
  }

  /** The id of value `v` with one more reference, created if absent. */
  def acquire(v: Any, rel: String): Int = {
    val found = lookup(v, rel)
    if (found >= 0) { refs(found) += 1; found }
    else {
      val id = newId(v.asInstanceOf[AnyRef], null)
      v match {
        case null => nullId = id
        case l: Long => integral.put(l, id)
        case i: Int => integral.put(i.toLong, id)
        case s: Short => integral.put(s.toLong, id)
        case b: Byte => integral.put(b.toLong, id)
        case r: AnyRef => generic(r) = id
      }
      id
    }
  }

  /** One more reference to the live id `id`. */
  def retain(id: Int): Unit = refs(id) += 1

  /** One reference less to `id`; at none the id is freed. */
  def release(id: Int): Unit = {
    refs(id) -= 1
    if (refs(id) == 0) {
      val ids = parts(id)
      if (ids != null) wide.remove(new Dict.Wide(ids))
      else objs(id) match {
        case null => nullId = -1
        case l: java.lang.Long => integral.remove(l.longValue)
        case i: java.lang.Integer => integral.remove(i.longValue)
        case s: java.lang.Short => integral.remove(s.longValue)
        case b: java.lang.Byte => integral.remove(b.longValue)
        case r => generic.remove(r)
      }
      objs(id) = null
      parts(id) = null
      if (nFree == freeIds.length) freeIds = java.util.Arrays.copyOf(freeIds, 2 * nFree)
      freeIds(nFree) = id; nFree += 1
      live -= 1
    }
  }

  /** Look the ids of `t`'s values up into `ids`, -1 for a value that has
    * none; false if some value has none.
    */
  def lookupAll(t: Tup.T, rel: String, ids: Array[Int]): Boolean = {
    var found = true
    var i = 0
    while (i < ids.length) {
      ids(i) = lookup(t(i), rel)
      if (ids(i) < 0) found = false
      i += 1
    }
    found
  }

  /** One more reference to each value of `t`, whose ids [[lookupAll]] put
    * in `ids`; a value with none is created and its id written to `ids`.
    */
  def acquireAll(t: Tup.T, rel: String, ids: Array[Int]): Unit = {
    var i = 0
    while (i < ids.length) {
      if (ids(i) >= 0) retain(ids(i)) else ids(i) = acquire(t(i), rel)
      i += 1
    }
  }

  /** One reference less to each id in `ids`. */
  def releaseAll(ids: Array[Int]): Unit = {
    var i = 0
    while (i < ids.length) { release(ids(i)); i += 1 }
  }

  /** The value of id `id`. */
  def decode(id: Int): Any = objs(id)

  /** The id of the wide entry holding `ids`, or -1. */
  def wideLookup(ids: Array[Int]): Int = wide.getOrElse(new Dict.Wide(ids), -1)

  /** The id of the wide entry holding `ids` with one more reference, created
    * (from a copy of `ids`) if absent.
    */
  def wideAcquire(ids: Array[Int]): Int = {
    val found = wideLookup(ids)
    if (found >= 0) { refs(found) += 1; found }
    else {
      val copy = ids.clone()
      val id = newId(null, copy)
      wide(new Dict.Wide(copy)) = id
      id
    }
  }

  /** The ids of wide entry `id`; the caller must not change them. */
  def wideIds(id: Int): Array[Int] = parts(id)

  /** Write the `m` ids of handle `h` to `out` at positions `pos`. */
  def unpack(h: Long, m: Int, out: Array[Int], pos: Array[Int]): Unit =
    if (Dict.isWide(m)) {
      val ids = parts(h.toInt)
      var i = 0
      while (i < m) { out(pos(i)) = ids(i); i += 1 }
    } else if (m == 1) out(pos(0)) = h.toInt
    else if (m == 2) { out(pos(0)) = (h >>> 32).toInt; out(pos(1)) = h.toInt }

  private def newId(v: AnyRef, ids: Array[Int]): Int = {
    val id =
      if (nFree > 0) { nFree -= 1; freeIds(nFree) }
      else {
        if (next == objs.length) {
          objs = java.util.Arrays.copyOf(objs, 2 * next)
          parts = java.util.Arrays.copyOf(parts, 2 * next)
          refs = java.util.Arrays.copyOf(refs, 2 * next)
        }
        next += 1
        next - 1
      }
    objs(id) = v
    parts(id) = ids
    refs(id) = 1
    live += 1
    id
  }

  private def reject(v: Any, rel: String): Nothing =
    throw new IllegalArgumentException(
      s"relation $rel: value $v of type ${v.getClass.getName} is not supported " +
        "(values must be Byte, Short, Int, Long, String or null)")
}

object Dict {

  /** Whether a tuple of `arity` ids is a wide entry rather than packed. */
  @inline def isWide(arity: Int): Boolean = arity > 2

  /** Pack two ids into one handle (a pair's first id in the high half). */
  @inline def pack(a: Int, b: Int): Long = (a.toLong << 32) | b.toLong

  /** Id `i` of a handle of arity `n` ≤ 2. */
  @inline def part(h: Long, n: Int, i: Int): Int =
    if (n == 2 && i == 0) (h >>> 32).toInt else h.toInt

  /** A wide entry's ids as a hash key. */
  private final class Wide(val ids: Array[Int]) {
    override val hashCode: Int = java.util.Arrays.hashCode(ids)
    override def equals(o: Any): Boolean = o match {
      case w: Wide => java.util.Arrays.equals(ids, w.ids)
      case _ => false
    }
  }
}

/** A projection onto positions `idx` of encoded tuples of arity `in`,
  * compiled against `dict`. A wide projection ([[Dict.isWide]]) only looks
  * its entry up: it gives -1, which no view holds, if there is none.
  */
final class Proj(dict: Dict, in: Int, idx: Array[Int]) {
  private val n = idx.length
  private val buf = new Array[Int](n)

  /** The projection of handle `h`. */
  def apply(h: Long): Long =
    if (Dict.isWide(in)) fromIds(dict.wideIds(h.toInt))
    else if (n == 0) 0L
    else if (n == 1) Dict.part(h, in, idx(0)).toLong
    else Dict.pack(Dict.part(h, in, idx(0)), Dict.part(h, in, idx(1)))

  /** The projection of the tuple whose ids are `ids`. */
  def fromIds(ids: Array[Int]): Long =
    if (Dict.isWide(n)) dict.wideLookup(gather(ids))
    else if (n == 0) 0L
    else if (n == 1) ids(idx(0)).toLong
    else Dict.pack(ids(idx(0)), ids(idx(1)))

  /** The projected ids of `ids`, in a buffer that the next call reuses. */
  def gather(ids: Array[Int]): Array[Int] = {
    var i = 0
    while (i < n) { buf(i) = ids(idx(i)); i += 1 }
    buf
  }
}
