package crownbench

import repro.core.Tup.T

object Stats {

  /** Nearest-rank percentile of an ascending array, `p` in (0, 1]. */
  def percentile(sorted: Array[Long], p: Double): Long = {
    require(sorted.nonEmpty, "percentile of no samples")
    require(p > 0 && p <= 1, s"percentile $p outside (0, 1]")
    sorted(math.max(0, math.ceil(p * sorted.length).toInt - 1))
  }

  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of no values")
    val s = xs.sorted
    val m = s.length / 2
    if (s.length % 2 == 1) s(m) else (s(m - 1) + s(m)) / 2
  }
}

/** Order-independent checksum of a set of result tuples: the wrapping sum of
  * a 64-bit hash per tuple. Deltas add their hash on insertion and subtract
  * it on deletion, so the running delta checksum equals the checksum of the
  * current full result whenever the deltas are right.
  */
object Checksum {

  def of(t: T): Long = {
    var h = t.length.toLong
    var i = 0
    while (i < t.length) {
      val v = t(i) match {
        case l: java.lang.Long => l.longValue
        case x                 => x.##.toLong
      }
      h = mix(h * 0x100000001B3L + v)
      i += 1
    }
    h
  }

  /** The MurmurHash3 64-bit finalizer. */
  def mix(z0: Long): Long = {
    var z = z0
    z = (z ^ (z >>> 33)) * 0xff51afd7ed558ccdL
    z = (z ^ (z >>> 33)) * 0xc4ceb9fe1a85ec53L
    z ^ (z >>> 33)
  }
}

/** Delta consumer passed to `processUpdate`: counts deltas and keeps the
  * signed checksum and the signed count (the change in result size).
  */
final class DeltaSink extends (T => Unit) {
  var sign = 1L
  var count = 0L
  var net = 0L
  var sum = 0L
  def apply(t: T): Unit = { count += 1; net += sign; sum += sign * Checksum.of(t) }
}

/** Full-enumeration consumer: counts results, sums their checksum and, when
  * `timed`, records the time to the first result and the largest gap between
  * consecutive results (the enumeration delay of §5).
  */
final class EnumSink(timed: Boolean) extends (T => Boolean) {
  var count = 0L
  var sum = 0L
  var startNanos = 0L
  var firstNanos = -1L
  var gapMaxNanos = 0L
  private var last = 0L
  def start(): Unit = { startNanos = System.nanoTime(); last = startNanos }
  def apply(t: T): Boolean = {
    count += 1
    sum += Checksum.of(t)
    if (timed) {
      val now = System.nanoTime()
      if (firstNanos < 0) firstNanos = now - startNanos
      else if (now - last > gapMaxNanos) gapMaxNanos = now - last
      last = now
    }
    true
  }
}
