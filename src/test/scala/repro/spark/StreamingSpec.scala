package repro.spark

import repro.SparkSpec
import repro.core._
import repro.stream.{Driver, Hypercube, Structured, Updates}
import repro.workload.{GraphData, Queries}

/** Spark streaming-layer integration: the Structured Streaming
  * (MemoryStream + foreachBatch) path and the HyperCube-partitioned
  * parallel runner must agree exactly with the plain serial driver.
  */
class StreamingSpec extends SparkSpec {

  private lazy val edges = GraphData.edgesLocal(spark, nVertices = 150, nEdges = 700)
  private val cq = Queries.hop3Full(200)
  private val copies = Seq("G1", "G2", "G3")

  private def serialRun(updates: Seq[Upd],
                        eng: IncrementalEngine = Compiler.compile(cq)): (Long, Set[Tup.T]) = {
    var deltas = 0L
    updates.foreach(u => deltas += eng.processUpdate(u)(_ => ()))
    (deltas, eng.fullSet)
  }

  test("Structured Streaming micro-batches produce identical deltas and state") {
    val base = Updates.fifoWindow("G", edges, w = 300)
    val perAtom = Updates.expandSelfJoin(base, Map("G" -> copies))
    val (serialDeltas, serialFull) = serialRun(perAtom)

    val engine = Compiler.compile(cq)
    val stats = Structured.runGraphStream(spark, engine, base, copies, batchSize = 200)
    assert(stats.batches >= base.size / 200L,
      s"expected multiple micro-batches, got ${stats.batches}")
    assert(stats.updates == perAtom.size.toLong)
    assert(stats.deltas == serialDeltas,
      s"streaming deltas ${stats.deltas} != serial $serialDeltas")
    assert(engine.fullSet == serialFull)
  }

  test("a replayed micro-batch id is skipped: engine state and deltas are unchanged") {
    val base = Updates.fifoWindow("G", edges, w = 300)
    val rows = base.map(u => Structured.EdgeUpd(if (u.isInsert) 1 else 0,
      u.t(0).asInstanceOf[Long], u.t(1).asInstanceOf[Long], u.ts)).toArray
    val (first, rest) = rows.splitAt(rows.length / 2)
    val engine = Compiler.compile(cq)
    val sink = new Structured.BatchSink(engine, copies)
    sink(0L, first)
    val (full, space, deltas, updates) = (engine.fullSet, engine.spaceEntries, sink.deltas, sink.updates)
    assert(deltas > 0 && updates == first.length.toLong * copies.size)
    var collected = false
    sink(0L, { collected = true; first })
    assert(!collected, "a replayed batch's rows were collected")
    assert(engine.fullSet == full && engine.spaceEntries == space)
    assert(sink.deltas == deltas && sink.updates == updates)
    assert(sink.batches == 1 && sink.replayed == 1)
    sink(1L, rest)
    val (serialDeltas, serialFull) = serialRun(Updates.expandSelfJoin(base, Map("G" -> copies)))
    assert(sink.deltas == serialDeltas && engine.fullSet == serialFull)
    assert(sink.batches == 2 && sink.replayed == 1)
  }

  test("HyperCube sharding: shard outputs are disjoint and union to the serial result") {
    // fig2 projected onto x3 has the root R2(x2, x3): x2 is not an output attribute
    for ((q, atoms) <- Seq(cq -> copies, Queries.fig2(Vector("x3")) -> Seq("R1", "R2"))) {
      val tree = JoinTree.choose(q).get
      val base = Updates.fifoWindow("G", edges, w = 300)
      val perAtom = Updates.expandSelfJoin(base, Map("G" -> atoms))
      val (serialDeltas, serialFull) = serialRun(perAtom, Compiler.compile(q))

      val p = 4
      val shards = Hypercube.shard(q, tree, perAtom, p)
      var totalDeltas = 0L
      var union = Set.empty[Tup.T]
      for (sh <- shards) {
        val eng = new CrownEngine(q, tree)
        sh.foreach(u => totalDeltas += eng.processUpdate(u)(_ => ()))
        val fs = eng.fullSet
        assert((union & fs).isEmpty, s"${q.name}: shard results overlap")
        union ++= fs
      }
      assert(totalDeltas == serialDeltas, s"${q.name}: $totalDeltas deltas, serial $serialDeltas")
      assert(union == serialFull, q.name)
    }
  }

  test("parallel Spark run (p=3) matches serial delta count") {
    val tree = JoinTree.choose(cq).get
    val base = Updates.fifoWindow("G", edges, w = 300)
    val perAtom = Updates.expandSelfJoin(base, Map("G" -> copies))
    val (serialDeltas, _) = serialRun(perAtom)
    val stats = Hypercube.runParallel(spark, cq, tree, perAtom, p = 3)
    assert(stats.totalDeltas == serialDeltas)
    assert(stats.shards.size == 3)
    assert(stats.makespanMillis > 0)
  }

  test("driver: stats are coherent and the budget produces DNFs") {
    val base = Updates.fifoWindow("G", edges.take(300), w = 100)
    val perAtom = Updates.expandSelfJoin(base, Map("G" -> copies))
    val st = Driver.run(Compiler.compile(cq), perAtom, budgetMillis = 60000,
      fullEnumerations = 4)
    assert(st.finished && st.updates == perAtom.size.toLong)
    assert(st.deltas > 0 && st.peakSpace > 0 && st.avgLatencyMicros > 0)
    assert(st.fullResults > 0)
    // zero budget: the driver gives up at the first deadline check
    val dnf = Driver.run(Compiler.compile(cq), perAtom, budgetMillis = 0)
    assert(!dnf.finished && dnf.updates < perAtom.size.toLong)
  }
}
