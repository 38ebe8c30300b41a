package repro.stream

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.execution.streaming.runtime.MemoryStream
import repro.core.{IncrementalEngine, Tup, Upd}

/** Spark Structured Streaming integration: the CROWN operator behind a real
  * micro-batched streaming query (`MemoryStream` source → `foreachBatch`
  * sink), the Spark analog of the paper's Flink DataStream deployment. The
  * engine holds its state on the driver across micro-batches — a stateful
  * streaming operator fed by Catalyst-planned batches.
  */
object Structured {

  /** Wire row for edge-table updates flowing through the stream. */
  final case class EdgeUpd(op: Int, src: Long, dst: Long, ts: Long) // op: 1 ins, 0 del

  /** `batches` micro-batches applied and `replayed` skipped as replays. */
  final case class StreamStats(batches: Long, replayed: Long, updates: Long, deltas: Long,
                               millis: Double)

  /** The body of `runGraphStream`'s `foreachBatch`: applies each
    * micro-batch's rows to `engine`, expanding every edge update to the
    * atoms `copies`. Spark's delivery is at-least-once, so after a failure
    * a batch may come again under the id it had. Ids rise by one per batch,
    * so a batch whose id is not above the last applied one is a replay: it
    * is skipped, without collecting its rows, and counted in `replayed`.
    */
  final class BatchSink(engine: IncrementalEngine, copies: Seq[String]) {
    private var lastApplied = -1L
    var batches = 0L
    var replayed = 0L
    var updates = 0L
    var deltas = 0L

    def apply(batchId: Long, rows: => Array[EdgeUpd]): Unit =
      if (batchId <= lastApplied) replayed += 1
      else {
        lastApplied = batchId
        batches += 1
        for (e <- rows; atom <- copies) {
          updates += 1
          deltas += engine.processUpdate(
            Upd(atom, Tup(e.src, e.dst), e.op == 1, e.ts))(_ => ())
        }
      }
  }

  /** Run a graph update sequence through Structured Streaming into `engine`.
    * `copies` expands each base edge update to the query's atom copies.
    */
  def runGraphStream(spark: SparkSession, engine: IncrementalEngine,
                     updates: Seq[Upd], copies: Seq[String],
                     batchSize: Int = 1000): StreamStats = {
    implicit val sqlCtx = spark.sqlContext
    import spark.implicits._
    val source = MemoryStream[EdgeUpd]
    val sink = new BatchSink(engine, copies)
    val t0 = System.nanoTime()
    val query = source.toDS().writeStream
      .outputMode("append")
      .foreachBatch { (ds: org.apache.spark.sql.Dataset[EdgeUpd], batchId: Long) =>
        sink(batchId, ds.collect())
      }
      .start()
    try {
      updates.grouped(batchSize).foreach { chunk =>
        source.addData(chunk.map(u =>
          EdgeUpd(if (u.isInsert) 1 else 0,
            u.t(0).asInstanceOf[Long], u.t(1).asInstanceOf[Long], u.ts)))
        query.processAllAvailable()
      }
    } finally query.stop()
    StreamStats(sink.batches, sink.replayed, sink.updates, sink.deltas,
      (System.nanoTime() - t0) / 1e6)
  }
}
