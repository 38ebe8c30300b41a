package repro.exp

import org.apache.spark.sql.SparkSession
import repro.baseline.{Hivm, StandardIvm}
import repro.core._
import repro.ghd.BagEngine
import repro.stream.{Driver, Hypercube, Updates}
import repro.workload.{GraphData, Queries, SnbData}

/** Experiment runners shared by the bench suites and the spark-submit jobs —
  * one per paper exhibit (Table 1, Figs 7–12). Scales are chosen so the
  * whole suite runs on one machine in minutes; override via env:
  * REPRO_NV, REPRO_NE, REPRO_WINDOW, REPRO_BUDGET_MS, REPRO_SNB_SF.
  */
object Runners {

  private def env(k: String, d: Long): Long = sys.env.get(k).map(_.toLong).getOrElse(d)
  def nVertices: Long = env("REPRO_NV", 1200)
  def nEdges: Long = env("REPRO_NE", 10000)
  def window: Int = env("REPRO_WINDOW", 3000).toInt
  def budgetMs: Long = env("REPRO_BUDGET_MS", 20000)
  def snbSf: Double = sys.env.get("REPRO_SNB_SF").map(_.toDouble).getOrElse(1.0)

  /** One table row; millis < 0 encodes DNF (budget exceeded). */
  final case class Row(query: String, engine: String, mode: String,
                       millis: Double, deltas: Long, space: Long,
                       avgLatUs: Double, finished: Boolean) {
    def ms: String = if (finished) f"$millis%.0f" else s"DNF(>${budgetMs}ms)"
  }

  def printTable(title: String, header: Seq[String], rows: Seq[Seq[String]]): Unit = {
    val all = header +: rows
    val w = header.indices.map(i => all.map(_(i).length).max)
    def line(r: Seq[String]) =
      r.zip(w).map { case (c, x) => c.padTo(x, ' ') }.mkString("| ", " | ", " |")
    println("\n== " + title + " ==")
    println(line(header))
    println(w.map("-" * _).mkString("|-", "-|-", "-|"))
    rows.foreach(r => println(line(r)))
  }

  // ------------------------------------------------------ engine factory

  /** The compared systems (Table 1 naming → our analogs). Trill's analog is
    * the Flink analog's engine in delta mode, so it is not run again: see
    * [[fig7]].
    */
  def engineFactories(cq: CQ, isDumbbell: Boolean, permille: Int = 1000)
      : Seq[(String, () => IncrementalEngine)] = {
    val crown: () => IncrementalEngine =
      if (isDumbbell) () => new BagEngine(cq.output, permille)
      else () => Compiler.compile(cq)
    val cap = repro.baseline.Budget.maxOpsPerUpdate
    Seq(
      "CROWN" -> crown,
      "Flink(StdCP)" -> (() => new StandardIvm(cq, cap)),
      "DBToaster(HIVM)" -> (() => new Hivm(cq, cap)))
  }

  // ------------------------------------------------------------ workloads

  /** FIFO per-atom update stream for a graph query. */
  def graphStream(spark: SparkSession, cq: CQ): Vector[Upd] = {
    val edges = GraphData.edgesLocal(spark, nVertices, nEdges)
    val base = Updates.fifoWindow("G", edges, window)
    val withVerts =
      if (cq.atoms.exists(_.name.startsWith("V"))) {
        val vs = GraphData.verticesOf(edges)
        Updates.insertionOnly("V", vs) ++ base
      } else base
    Updates.expandSelfJoin(withVerts, Queries.graphCopies(cq))
  }

  /** FIFO per-atom update stream for an SNB query at scale factor `sf`
    * (base tables the query does not read are dropped from the stream).
    */
  def snbStream(spark: SparkSession, cq: CQ, sf: Double, windowDays: Long = 60): Vector[Upd] = {
    val rows = SnbData.localRows(spark, sf)
    val copies = Queries.snbCopies(cq)
    val base = Updates.timedWindow(rows, windowDays).filter(u => copies.contains(u.rel))
    Updates.expandSelfJoin(base, copies)
  }

  def runOne(label: String, mk: () => IncrementalEngine, cq: CQ, updates: Seq[Upd],
             mode: String): Row = {
    System.gc() // don't let the previous engine's garbage bill this run
    val eng = mk()
    val st = Driver.run(eng, updates, budgetMillis = budgetMs,
      fullEnumerations = if (mode == "full") 10 else 0)
    Row(cq.name, label, mode, st.millis, st.deltas, st.peakSpace, st.avgLatencyMicros,
      st.finished)
  }

  // ------------------------------------------------------------- Table 1

  /** Reproduces Table 1 verbatim: feature matrix of the compared engines. */
  def table1(): Seq[Seq[String]] = Seq(
    Seq("Distributed", "yes", "yes", "no", "yes", "no"),
    Seq("Full enumeration", "yes", "yes", "yes", "yes", "no"),
    Seq("Delta enumeration", "yes", "no", "no", "no", "yes"),
    Seq("Updates", "Arbitrary", "FIFO", "Arbitrary", "Batch", "Arbitrary"),
    Seq("Internal", "This paper", "Standard CP", "HIVM", "HIVM", "Standard CP"))

  val table1Header: Seq[String] =
    Seq("", "CROWN", "Flink", "DBToaster", "DBToaster Spark", "Trill")

  // -------------------------------------------------------------- Fig 7

  def fig7Queries(spark: SparkSession): Seq[(CQ, Boolean, Vector[Upd])] = {
    // power-law hubs make the star and the full dumbbell produce 10^8+
    // results at a 10% filter on this container; their output-size control
    // is tightened to 1% (both engines' deltas shrink identically, so the
    // comparison is unaffected)
    val graph = Seq(
      Queries.hop3Full(100), Queries.hop3Proj(1000), Queries.hop4Full(100),
      Queries.hop4Proj(1000), Queries.star3(2), Queries.comb2(100))
      .map(q => (q, false, graphStream(spark, q)))
    val dumb = Seq(Queries.dumbbellFull(10), Queries.dumbbellProj(100))
      .map(q => (q, true, graphStream(spark, q)))
    val snb = Seq((Queries.snbQ1, false), (Queries.snbQ2(100), false),
      (Queries.snbQ3(100), false))
      .map { case (q, d) => (q, d, snbStream(spark, q, snbSf, windowDays = 90)) }
    val q4 = Queries.snbQ4Extended(100)
    graph ++ dumb ++ snb :+ ((q4, false, snbStream(spark, q4, snbSf, windowDays = 90)))
  }

  /** Fig 7's table title. Its Trill rows are relabelled copies of the Flink
    * delta rows: Trill's analog is the same `StandardIvm` on the same stream.
    */
  val fig7Title = "Fig 7: processing time (Trill rows = Flink delta rows relabelled: same engine, same stream)"

  def fig7(spark: SparkSession): Seq[Row] = {
    val rows = for {
      (cq, isDumbbell, updates) <- fig7Queries(spark)
      dumbPm = if (cq.name == "dumbbell-full") 10 else 100
      (label, mk) <- engineFactories(cq, isDumbbell, dumbPm)
      mode <- Seq("delta", "full")
    } yield {
      val wrapped: () => IncrementalEngine =
        if (cq.name == "snb-q4")
          () => new GroupCountDistinctAdapter(mk(), cq.output, Vector("nm", "t"), "m")
        else mk
      runOne(label, wrapped, cq, updates, mode)
    }
    // Trill is delta-only (Table 1): one row per query, copied from Flink's
    rows.flatMap { r =>
      if (r.engine == "Flink(StdCP)" && r.mode == "delta") Seq(r, r.copy(engine = "Trill(StdCP-delta)"))
      else Seq(r)
    }
  }

  // -------------------------------------------------------------- Fig 8

  def fig8(spark: SparkSession, sfs: Seq[Double] = Seq(0.25, 0.5, 1.0, 2.0)): Seq[(Double, Row)] = {
    val cq = Queries.snbQ2(100)
    // JIT warmup on a tiny stream so the smallest SF is not dominated by
    // compilation of the engine classes
    val warm = snbStream(spark, cq, 0.05)
    for ((label, mk) <- engineFactories(cq, isDumbbell = false))
      Driver.run(mk(), warm, budgetMillis = budgetMs)
    for {
      sf <- sfs
      updates = snbStream(spark, cq, sf, windowDays = 120)
      (label, mk) <- engineFactories(cq, isDumbbell = false)
    } yield (sf, runOne(label, mk, cq, updates, "delta"))
  }

  // -------------------------------------------------------------- Fig 9

  final case class Fig9Row(target: Int, lambdaT: Double, millis: Double, workOps: Long,
                           updates: Int)

  def fig9(ks: Seq[Int] = Seq(1, 2, 4, 8, 16, 32, 64)): Seq[Fig9Row] = {
    val cq = Queries.hop3Full(1000)
    val tree = JoinTree.choose(cq).get
    ks.map { k =>
      val base = Updates.lambdaSequence("G", hubs = k, churns = k)
      val updates = Updates.expandSelfJoin(base, Queries.graphCopies(cq))
      val lam = Enclosureness.lambdaTree(cq, tree, updates)
      val eng = new CrownEngine(cq, tree)
      val st = Driver.run(eng, updates, budgetMillis = budgetMs)
      Fig9Row(k, lam, st.millis, st.workOps, updates.size)
    }
  }

  // -------------------------------------------------------------- Fig 10

  def fig10(spark: SparkSession, ps: Seq[Int] = Seq(1, 2, 4, 8, 16)): Seq[Hypercube.ParStats] = {
    val cq = Queries.hop4Full(100)
    val tree = JoinTree.choose(cq).get
    val updates = graphStream(spark, cq)
    ps.map(p => Hypercube.runParallel(spark, cq, tree, updates, p))
  }

  // -------------------------------------------------------------- Fig 11

  final case class Fig11Row(engine: String, avgLatUs: Double, p99LatUs: Double,
                            earlyAvgUs: Double, lateAvgUs: Double)

  /** Per-update delta latency over a *growing* (insertion-only) stream: the
    * standard-CP engine's views grow with the stream so its latency drifts
    * upward (the paper's Trill curve), while CROWN's stays flat. Early/late
    * averages compare the 2nd and 4th quarters (the 1st quarter is JIT
    * warmup).
    */
  def fig11(spark: SparkSession): Seq[Fig11Row] = {
    val cq = Queries.hop3Full(100)
    val edges = GraphData.edgesLocal(spark, nVertices, nEdges)
    val base = Updates.insertionOnly("G", edges)
    val updates = Updates.expandSelfJoin(base, Queries.graphCopies(cq))
    Seq("CROWN" -> (() => Compiler.compile(cq): IncrementalEngine),
        "Trill(StdCP-delta)" -> (() => new StandardIvm(cq): IncrementalEngine)).map {
      case (label, mk) =>
        val eng = mk()
        val lats = new scala.collection.mutable.ArrayBuffer[Long](updates.size)
        val deadline = System.nanoTime() + budgetMs * 1000000L
        val it = updates.iterator
        while (it.hasNext && System.nanoTime() < deadline) {
          val u = it.next()
          val t0 = System.nanoTime()
          eng.processUpdate(u)(_ => ())
          lats += System.nanoTime() - t0
        }
        val done = lats.toArray
        val sorted = done.sorted
        def avg(a: Array[Long]) = if (a.isEmpty) 0.0 else a.map(_ / 1000.0).sum / a.length
        val q = done.length / 4
        Fig11Row(label, avg(done),
          sorted((sorted.length * 0.99).toInt.min(sorted.length - 1)) / 1000.0,
          avg(done.slice(q, 2 * q)), avg(done.slice(3 * q, done.length)))
    }
  }

  // -------------------------------------------------------------- Fig 12

  def fig12(spark: SparkSession, permilles: Seq[Int] = Seq(1, 5, 20, 100, 200, 500),
            fourHop: Boolean = false): Seq[(Int, Row)] =
    for {
      pm <- permilles
      cq = if (fourHop) Queries.hop4Proj(pm) else Queries.hop3Full(pm)
      updates = graphStream(spark, cq)
      (label, mk) <- engineFactories(cq, isDumbbell = false)
    } yield (pm, runOne(label, mk, cq, updates, "delta"))
}
