package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.collection.mutable
import scala.util.Random

/** The open-addressing tables of `Prim.scala` against Scala's own
  * `mutable.HashSet`/`HashMap`, and the delta accumulator against
  * `mutable.LinkedHashMap`, driven by the same seeded random operations:
  * every answer, the size and the iterated content must agree after every
  * step, through growth and through the shrinking that follows a drain.
  */
class PrimSpec extends AnyFunSuite {

  /** Keys from a small domain, so that operations hit present keys, with 0
    * (the packed empty projection) and the extreme values mixed in.
    */
  private def key(rnd: Random): Long = rnd.nextInt(12) match {
    case 0 => 0L
    case 1 => Long.MinValue
    case 2 => Long.MaxValue
    case 3 => -1L
    case _ => rnd.nextInt(40).toLong - 5
  }

  /** The random operations as (key, choice) pairs: 2000 over the small key
    * domain, then a grow phase of mostly inserts over a wide domain, then a
    * drain phase of mostly removals over it. A choice below 45 inserts and
    * one in [45, 75) removes in every test below (the accumulator, which has
    * no removal, adds and looks up there instead).
    */
  private def schedule(rnd: Random): Iterator[(Long, Int)] = {
    def wide(): Long = if (rnd.nextInt(50) == 0) key(rnd) else rnd.nextInt(600).toLong * 7919L
    def pick(insert: Boolean): Int =
      if (insert == (rnd.nextInt(10) < 9)) rnd.nextInt(45) else 45 + rnd.nextInt(30)
    Iterator.fill(2000)((key(rnd), rnd.nextInt(100))) ++
      Iterator.fill(800)((wide(), pick(insert = true))) ++
      Iterator.fill(1600)((wide(), pick(insert = false)))
  }

  private def slots(t: LongTable): Iterator[Int] =
    Iterator.iterate(t.nextSlot(0))(s => t.nextSlot(s + 1)).takeWhile(_ >= 0)

  private def keysOf(t: LongTable): Set[Long] = {
    val ks = slots(t).map(t.keyAt).toVector
    assert(ks.distinct.size == ks.size, s"a key iterated twice: $ks")
    ks.toSet
  }

  test("LongSet agrees with mutable.HashSet on random adds, removes, lookups and clears") {
    for (seed <- 1 to 20) {
      val rnd = new Random(seed)
      val s = new LongSet(2)
      val ref = mutable.HashSet.empty[Long]
      for (((k, choice), step) <- schedule(rnd).zipWithIndex) {
        withClue(s"seed=$seed step=$step key=$k: ") {
          choice match {
            case r if r < 45 => assert(s.add(k) == ref.add(k))
            case r if r < 80 => assert(s.remove(k) == ref.remove(k))
            case r if r < 99 => assert(s.contains(k) == ref.contains(k))
            case _ => s.clear(); ref.clear()
          }
          assert(s.size == ref.size)
          assert(s.isEmpty == ref.isEmpty)
          assert(keysOf(s) == ref)
        }
      }
    }
  }

  /** The entries of `a` in iteration order. */
  private def entriesOf(a: LongIntAcc): Vector[(Long, Int)] =
    Vector.tabulate(a.size)(i => a.keyAt(i) -> a.valueAt(i))

  test("LongIntAcc agrees with mutable.LinkedHashMap on random sums, adds, lookups and clears") {
    for (seed <- 1 to 20) {
      val rnd = new Random(seed)
      val a = new LongIntAcc(2)
      val ref = mutable.LinkedHashMap.empty[Long, Int]
      for (((k, choice), step) <- schedule(rnd).zipWithIndex) {
        val d = rnd.nextInt(7) - 3
        withClue(s"seed=$seed step=$step key=$k: ") {
          choice match {
            case r if r < 45 =>
              val sum = ref.getOrElse(k, 0) + d
              ref(k) = sum
              assert(a.addTo(k, d) == sum)
            case r if r < 60 =>
              val added = !ref.contains(k)
              if (added) ref(k) = 0
              assert(a.add(k) == added)
            case r if r < 98 => assert(a.contains(k) == ref.contains(k))
            case _ => a.clear(); ref.clear()
          }
          assert(a.size == ref.size)
          assert(a.isEmpty == ref.isEmpty)
          // insertion order, and entries whose sum is back at 0 kept
          assert(entriesOf(a) == ref.toVector)
        }
      }
    }
  }

  test("LongIntAcc keeps key 0 and the extreme keys apart from the empty slot") {
    val a = new LongIntAcc(2)
    val ks = Vector(0L, Long.MinValue, Long.MaxValue, -1L, 1L)
    for (k <- ks) assert(!a.contains(k))
    for ((k, i) <- ks.zipWithIndex) assert(a.addTo(k, i + 1) == i + 1)
    for ((k, i) <- ks.zipWithIndex) assert(a.addTo(k, 10) == i + 11)
    assert(!a.add(0L) && !a.add(Long.MinValue))
    assert(entriesOf(a) == ks.zipWithIndex.map { case (k, i) => k -> (i + 11) })
    a.clear()
    for (k <- ks) assert(!a.contains(k))
    assert(a.add(Long.MaxValue) && a.add(0L))
    assert(entriesOf(a) == Vector(Long.MaxValue -> 0, 0L -> 0))
  }

  test("LongIntAcc grows through several rehashes and keeps every sum and the order") {
    val a = new LongIntAcc(2)
    val ks = (1 to 5000).map(i => i.toLong * 1000003L - 2500000000L)
    val caps = mutable.LinkedHashSet(a.capacity)
    for ((k, i) <- ks.zipWithIndex) { assert(a.addTo(k, i) == i); caps += a.capacity }
    assert(caps.size >= 10, s"capacities $caps")
    assert(a.capacity >= 2 * ks.size)
    for ((k, i) <- ks.zipWithIndex) assert(a.addTo(k, 1) == i + 1)
    assert(entriesOf(a) == ks.zipWithIndex.map { case (k, i) => k -> (i + 1) })
  }

  test("LongIntAcc keeps its capacity after a large use, and a small use visits only its entries") {
    val a = new LongIntAcc
    for (k <- 1L to 100000L) a.addTo(k, 1)
    assert(a.size == 100000)
    val peak = a.capacity
    assert(peak >= 200000)
    a.clear()
    assert(a.isEmpty && a.capacity == peak)
    for (k <- 1L to 100000L by 997L) assert(!a.contains(k))
    for (round <- 1 to 20) {
      val k = round * 7919L
      assert(a.addTo(k, round) == round)
      assert(a.size == 1 && entriesOf(a) == Vector(k -> round))
      assert(a.capacity == peak, "a clear() never shrinks the accumulator")
      a.clear()
      assert(a.isEmpty && !a.contains(k))
    }
  }

  test("LongIntMap agrees with mutable.HashMap on random puts, adds, removes, lookups and clears") {
    for (seed <- 1 to 20) {
      val rnd = new Random(seed)
      val m = new LongIntMap(2)
      val ref = mutable.HashMap.empty[Long, Int]
      for (((k, choice), step) <- schedule(rnd).zipWithIndex) {
        val v = rnd.nextInt(7) - 3
        withClue(s"seed=$seed step=$step key=$k: ") {
          choice match {
            case r if r < 25 => m.put(k, v); ref(k) = v
            case r if r < 45 =>
              val sum = ref.getOrElse(k, 0) + v
              ref(k) = sum
              assert(m.addTo(k, v) == sum)
            case r if r < 75 => assert(m.remove(k) == ref.remove(k).isDefined)
            case r if r < 99 =>
              assert(m.get(k, Int.MinValue) == ref.getOrElse(k, Int.MinValue))
              assert(m.contains(k) == ref.contains(k))
            case _ => m.clear(); ref.clear()
          }
          assert(m.size == ref.size)
          assert(slots(m).map(s => m.keyAt(s) -> m.valueAt(s)).toMap == ref)
        }
      }
    }
  }

  test("LongObjMap agrees with mutable.HashMap on random inserts, removes, lookups and clears") {
    for (seed <- 1 to 20) {
      val rnd = new Random(seed)
      val m = new LongObjMap[String](2)
      val ref = mutable.HashMap.empty[Long, String]
      for (((k, choice), step) <- schedule(rnd).zipWithIndex) {
        val v = rnd.nextInt(5).toString
        withClue(s"seed=$seed step=$step key=$k: ") {
          choice match {
            case r if r < 45 => assert(m.getOrElseUpdate(k, () => v) == ref.getOrElseUpdate(k, v))
            case r if r < 75 => assert(m.remove(k) == ref.remove(k).isDefined)
            case r if r < 99 => assert(m.get(k) == ref.getOrElse(k, null))
            case _ => m.clear(); ref.clear()
          }
          assert(m.size == ref.size)
          assert(slots(m).map(s => m.keyAt(s) -> m.valueAt(s)).toMap == ref)
        }
      }
    }
  }

  test("a removal shifts back a run that wraps past the end of the table") {
    val s = new LongSet(16)
    val last = s.capacity - 1
    // keys whose probe starts in the last slot: the run wraps to slots 0, 1, ...
    val wrapping = Iterator.from(1).map(_.toLong).filter(s.slot0(_) == last).take(4).toVector
    val atZero = Iterator.from(1).map(_.toLong).filter(s.slot0(_) == 0).take(2).toVector
    val all = wrapping ++ atZero
    all.foreach(k => assert(s.add(k)))
    assert(s.capacity == 16, "the test keys must not grow the table")
    for ((k, i) <- all.zipWithIndex) {
      assert(s.remove(k))
      for (rest <- all.drop(i + 1)) assert(s.contains(rest), s"$rest lost after removing $k")
      assert(keysOf(s) == all.drop(i + 1).toSet)
    }
    assert(s.isEmpty)
  }

  test("growth keeps every entry, key 0 included") {
    val m = new LongIntMap(2)
    for (k <- -50L to 50L) m.put(k * 1000003L, k.toInt)
    assert(m.size == 101)
    assert(m.capacity >= 2 * 101)
    for (k <- -50L to 50L) assert(m.get(k * 1000003L, -999) == k.toInt)
    assert(m.get(0L, -999) == 0 && m.contains(0L))
  }

  test("key 0 is stored, iterated, removed and cleared like any other key") {
    val s = new LongSet(2)
    assert(!s.contains(0L))
    assert(s.add(0L) && !s.add(0L))
    assert(s.size == 1 && keysOf(s) == Set(0L))
    s.add(5L)
    s.clear()
    assert(s.isEmpty && !s.contains(0L) && keysOf(s).isEmpty)
    s.add(0L)
    assert(s.remove(0L) && !s.remove(0L) && s.isEmpty)
    val m = new LongObjMap[String](2)
    assert(m.get(0L) == null)
    assert(m.getOrElseUpdate(0L, () => "empty") == "empty")
    assert(m.getOrElseUpdate(0L, () => "other") == "empty")
    assert(slots(m).map(m.valueAt).toList == List("empty"))
  }

  test("a drained table shrinks with its size, and clear() steps a large buffer back down") {
    val s = new LongSet
    for (k <- 1L to 100000L) s.add(k)
    assert(s.capacity >= 200000)
    for (k <- 2L to 100000L) assert(s.remove(k))
    assert(s.size == 1 && s.contains(1L) && keysOf(s) == Set(1L))
    assert(s.capacity <= 8, s"capacity ${s.capacity} after draining to one entry")

    val buf = new LongObjMap[String]
    for (k <- 0L until 1000L) buf.getOrElseUpdate(k, () => "v")
    val peak = buf.capacity
    buf.clear()
    buf.getOrElseUpdate(7L, () => "w")
    assert(buf.capacity == peak, "a clear() of a full table keeps its capacity")
    for (_ <- 1 to 20) { buf.clear(); buf.getOrElseUpdate(7L, () => "w") }
    assert(buf.capacity <= 8 && buf.size == 1 && buf.get(7L) == "w" && buf.get(0L) == null)
  }
}
