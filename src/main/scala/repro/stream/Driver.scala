package repro.stream

import repro.core.{IncrementalEngine, Upd}

/** Single-threaded stream driver: feeds an update sequence to an engine and
  * measures the metrics the paper's figures report — total processing time,
  * per-update delta latency (avg/p99), peak space, abstract work, and
  * whether the run finished within its budget (the paper's missing bars are
  * 4-hour DNFs; ours use `budgetMillis`).
  */
object Driver {

  /** One run's measurements. `finished = false` means the time budget was
    * exhausted (reported like the paper's DNF bars).
    */
  final case class RunStats(
      engine: String,
      updates: Long,
      deltas: Long,
      millis: Double,
      avgLatencyMicros: Double,
      p99LatencyMicros: Double,
      peakSpace: Long,
      workOps: Long,
      finished: Boolean,
      fullResults: Long) {
    def throughput: Double = if (millis <= 0) 0 else updates / millis * 1000.0
  }

  /** Run `updates` through `engine`. `millis` and the time budget count the
    * updates and the full-enumeration requests (the paper's full mode counts
    * them), but not the `spaceEntries` scans that sample peak space.
    *
    * @param fullEnumerations if > 0, request a full enumeration this many
    *                         times, evenly spaced (the paper requests the
    *                         full result after every 10% of the stream)
    * @param budgetMillis     time budget; exceeded → DNF
    */
  def run(engine: IncrementalEngine, updates: Seq[Upd],
          budgetMillis: Long = 120000L,
          fullEnumerations: Int = 0): RunStats = {
    val n = updates.size
    val lat = new Array[Long](math.max(n, 1))
    var deltas = 0L
    var peak = 0L
    var i = 0
    var finished = true
    var fullCount = 0L
    var offClock = 0L // harness work inside the loop: the space scans
    val enumEvery = if (fullEnumerations > 0) math.max(n / fullEnumerations, 1) else Int.MaxValue
    val start = System.nanoTime()
    val deadline = start + budgetMillis * 1000000L
    val it = updates.iterator
    while (it.hasNext && finished) {
      val u = it.next()
      val t0 = System.nanoTime()
      try deltas += engine.processUpdate(u)(_ => ())
      catch { case _: repro.baseline.BudgetExceeded => finished = false }
      lat(i) = System.nanoTime() - t0
      i += 1
      if (finished && i % enumEvery == 0 && fullEnumerations > 0) {
        var c = 0L
        engine.enumerateFull { _ => c += 1; true }
        fullCount = math.max(fullCount, c) // windows drain near the end
      }
      if ((i & 1023) == 0) {
        val s0 = System.nanoTime()
        peak = math.max(peak, engine.spaceEntries)
        val s1 = System.nanoTime()
        offClock += s1 - s0
        if (s1 - offClock > deadline) finished = false
      }
    }
    val totalMs = (System.nanoTime() - start - offClock) / 1e6
    peak = math.max(peak, engine.spaceEntries)
    val done = lat.take(i)
    java.util.Arrays.sort(done)
    val avg = if (i == 0) 0.0 else done.map(_ / 1000.0).sum / i
    val p99 = if (i == 0) 0.0 else done(math.min(i - 1, (i * 0.99).toInt)) / 1000.0
    RunStats(engine.name, i.toLong, deltas, totalMs, avg, p99, peak, engine.workOps,
      finished, fullCount)
  }
}
