package crownbench

import java.lang.management.ManagementFactory
import repro.baseline.BudgetExceeded
import repro.core.{CQ, IncrementalEngine, Upd}
import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** What one engine's pass over the stream measured and produced. */
final class PassResult(val layer: String, nInserts: Int, nDeletes: Int) {
  val insertNanos = new Array[Long](nInserts)
  val deleteNanos = new Array[Long](nDeletes)
  var inserts = 0
  var deletes = 0
  var updateNanos = 0L // the pass clock: update segments only
  val enumNanos = new Array[Long](Pass.Checkpoints) // full-enumeration request at each checkpoint
  var enumResults = 0L
  var firstResultNanos = 0L // largest over the requests
  var gapMaxNanos = 0L      // largest over the requests
  var deltas = 0L
  var checksum = 0L
  var peakSpace = 0L
  var workOps = 0L
  var attempted = 0L
  var failed = 0L
  var aborted = false
  var allocBytes = 0L
  var gcCount = 0L
  var gcMillis = 0L
  var jitMillis = 0L
  val errors = mutable.ArrayBuffer.empty[String]
  def done: Long = attempted - failed
}

/** Span name ids of one engine's layer. */
final class LayerIds(trace: Trace, layer: String) {
  val insert: Int = trace.id(s"$layer.insert")
  val delete: Int = trace.id(s"$layer.delete")
  val space: Int = trace.id(s"$layer.space")
  val enumFull: Int = trace.id(s"$layer.enum_full")
  val duck: Int = trace.id("bench.check.duckdb")
}

/** One pass of one engine over the update stream: a closed loop with one
  * caller. The pass clock runs only while updates are processed; it stops
  * at each checkpoint, where the pass samples `spaceEntries`, requests a
  * full enumeration (timed on its own clock) and checks it against the
  * running delta checksum.
  */
object Pass {

  /** Checkpoints at the middle of each tenth of the stream, so a FIFO
    * stream's window is never empty at one.
    */
  val Checkpoints = 10

  def checkpoints(n: Int): Array[Int] =
    Array.tabulate(Checkpoints)(k => ((2L * k + 1) * n / (2 * Checkpoints)).toInt)

  private val threadBean =
    ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
  private def gcCount = ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionCount).sum
  private def gcMillis = ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime).sum
  private def jitMillis = ManagementFactory.getCompilationMXBean.getTotalCompilationTime

  /** Run `engine` over `updates`. `trace` is null in an untraced pass;
    * `duckAt` is the checkpoint index at which DuckDB checks the full
    * result, or -1.
    */
  def run(engine: IncrementalEngine, cq: CQ, updates: Array[Upd], out: PassResult,
          trace: Trace, ids: LayerIds, duckAt: Int): Unit = {
    val gc0 = gcCount; val gcMs0 = gcMillis; val jit0 = jitMillis
    val alloc0 = threadBean.getCurrentThreadAllocatedBytes
    val n = updates.length
    val cps = checkpoints(n)
    val sink = new DeltaSink
    var i = 0
    var c = 0
    while (i < n && !out.aborted) {
      val stop = if (c < cps.length) cps(c) else n
      val seg = System.nanoTime()
      while (i < stop && !out.aborted) {
        val u = updates(i)
        sink.sign = if (u.isInsert) 1L else -1L
        val t0 = System.nanoTime()
        try engine.processUpdate(u)(sink)
        catch {
          case _: BudgetExceeded => // views are half-mutated: stop this engine
            out.aborted = true
            out.failed += n - i
          case e: Exception =>
            out.failed += 1
            if (out.errors.size < 10) out.errors += s"update $i ($u) threw $e"
        }
        val t1 = System.nanoTime()
        if (u.isInsert) { out.insertNanos(out.inserts) = t1 - t0; out.inserts += 1 }
        else { out.deleteNanos(out.deletes) = t1 - t0; out.deletes += 1 }
        if (trace != null) trace.leaf(if (u.isInsert) ids.insert else ids.delete, t0, t1)
        i += 1
      }
      out.updateNanos += System.nanoTime() - seg
      if (i == stop && c < cps.length && !out.aborted) {
        checkpoint(engine, cq, updates, i, c, sink, out, trace, ids, duckAt == c)
        c += 1
      }
    }
    out.attempted = n
    out.deltas = sink.count
    out.checksum = sink.sum
    out.workOps = engine.workOps
    out.allocBytes = threadBean.getCurrentThreadAllocatedBytes - alloc0
    out.gcCount = gcCount - gc0
    out.gcMillis = gcMillis - gcMs0
    out.jitMillis = jitMillis - jit0
  }

  private def checkpoint(engine: IncrementalEngine, cq: CQ, updates: Array[Upd], i: Int, c: Int,
                         sink: DeltaSink, out: PassResult, trace: Trace, ids: LayerIds,
                         duck: Boolean): Unit = {
    val s0 = System.nanoTime()
    val space = engine.spaceEntries
    val s1 = System.nanoTime()
    if (trace != null) trace.leaf(ids.space, s0, s1)
    out.peakSpace = math.max(out.peakSpace, space)

    val es = new EnumSink(timed = trace != null)
    val e0 = System.nanoTime()
    es.start()
    engine.enumerateFull(es)
    val e1 = System.nanoTime()
    if (trace != null) trace.leaf(ids.enumFull, e0, e1)
    out.enumNanos(c) = e1 - e0
    out.enumResults += es.count
    out.firstResultNanos = math.max(out.firstResultNanos, es.firstNanos)
    out.gapMaxNanos = math.max(out.gapMaxNanos, es.gapMaxNanos)
    if (es.count != sink.net || es.sum != sink.sum)
      out.errors += s"${out.layer} after update $i: full enumeration has ${es.count} results " +
        s"(checksum ${es.sum}) but the deltas add up to ${sink.net} (checksum ${sink.sum})"

    if (duck) {
      val d0 = System.nanoTime()
      val (count, sum) = Duck.result(cq, Duck.live(updates, i))
      if (trace != null) trace.leaf(ids.duck, d0, System.nanoTime())
      if (count != es.count || sum != es.sum)
        out.errors += s"${out.layer} after update $i: DuckDB has $count results (checksum $sum), " +
          s"the engine ${es.count} (checksum ${es.sum})"
    }
  }
}
