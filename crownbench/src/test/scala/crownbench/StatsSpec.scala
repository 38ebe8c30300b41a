package crownbench

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Tup

class StatsSpec extends AnyFunSuite {

  test("percentile is nearest-rank on the sorted samples") {
    val xs = (1L to 100L).toArray
    assert(Stats.percentile(xs, 0.5) == 50)
    assert(Stats.percentile(xs, 0.99) == 99)
    assert(Stats.percentile(xs, 1.0) == 100)
    assert(Stats.percentile(xs, 0.001) == 1)
    assert(Stats.percentile(Array(7L), 0.99) == 7)
    assert(Stats.percentile(Array(1L, 2L, 3L), 0.5) == 2)
    assertThrows[IllegalArgumentException](Stats.percentile(Array.empty[Long], 0.5))
    assertThrows[IllegalArgumentException](Stats.percentile(xs, 0.0))
  }

  test("median averages the two middle values of an even count") {
    assert(Stats.median(Seq(3.0, 1.0, 2.0)) == 2.0)
    assert(Stats.median(Seq(4.0, 1.0, 3.0, 2.0)) == 2.5)
  }

  test("checksum ignores tuple order but not value order") {
    val ts = Seq(Tup(1L, 2L), Tup(2L, 1L), Tup(3L, 3L))
    val sum = ts.map(Checksum.of).sum
    assert(ts.reverse.map(Checksum.of).sum == sum)
    assert(Checksum.of(Tup(1L, 2L)) != Checksum.of(Tup(2L, 1L)))
    assert(Checksum.of(Tup(1L)) != Checksum.of(Tup(1L, 0L)))
  }

  test("signed deltas sum to the checksum of what is left") {
    val sink = new DeltaSink
    for (t <- Seq(Tup(1L, 2L), Tup(2L, 3L), Tup(4L, 5L))) sink(t)
    sink.sign = -1L
    sink(Tup(2L, 3L))
    assert(sink.count == 4 && sink.net == 2)
    assert(sink.sum == Checksum.of(Tup(1L, 2L)) + Checksum.of(Tup(4L, 5L)))
  }
}
