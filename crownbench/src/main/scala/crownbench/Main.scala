package crownbench

import java.io.File
import java.lang.management.ManagementFactory
import repro.core.CrownEngine
import scala.collection.mutable

/** The benchmark's entry point: one workload per JVM.
  *
  * {{{
  * Main --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
  * }}}
  *
  * The run sets up the workload several times (setup_s is the median), runs
  * the correctness reference and the warm-up passes, then runs timed passes
  * for `--seconds`, each on a new engine after `System.gc()`. With
  * `--trace 1`, traced passes alternate with untraced ones; the traced ones
  * give the per-layer figures and the untraced ones the tracing overhead.
  * The last line of standard output is the JSON result; the exit code is 0
  * only when every correctness check passed.
  */
object Main {

  /** Setups run first and discarded, then setups timed (setup_s is their median). */
  val SetupWarmups = 5
  val SetupReps = 11

  final case class Args(workload: Workload, seed: Long, seconds: Int, traced: Boolean, out: File)

  def parse(argv: Array[String]): Either[String, Args] = {
    val kv = argv.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = kv.get(k).toRight(s"missing --$k")
    for {
      name <- need("workload")
      w <- Workloads.byName(name).toRight(
        s"unknown workload $name (known: ${Workloads.all.map(_.name).mkString(", ")})")
      seed <- need("seed").flatMap(s => s.toLongOption.toRight(s"bad --seed $s"))
      secs <- need("seconds").flatMap(s => s.toIntOption.filter(_ > 0).toRight(s"bad --seconds $s"))
      tr <- need("trace").flatMap {
        case "0" => Right(false); case "1" => Right(true); case t => Left(s"bad --trace $t")
      }
    } yield Args(w, seed, secs, tr, new File(kv.getOrElse("out", "target")))
  }

  def main(argv: Array[String]): Unit = parse(argv) match {
    case Left(msg) =>
      System.err.println(s"crownbench: $msg")
      sys.exit(2)
    case Right(a) =>
      sys.exit(if (run(a)) 0 else 1)
  }

  /** A metric as printed in the JSON result. */
  final case class Metric(name: String, value: Double, unit: String)

  def run(a: Args): Boolean = {
    val jvmStartMs = System.currentTimeMillis() - ManagementFactory.getRuntimeMXBean.getStartTime
    val tMain = System.nanoTime()
    val w = a.workload
    val trace = if (a.traced) new Trace else null

    val cold = Workloads.setup(w, a.seed, null)
    for (_ <- 2 to SetupWarmups) Workloads.setup(w, a.seed, null)
    val reps = (1 to SetupReps).map(_ => Workloads.setup(w, a.seed, trace))
    val p = reps.last
    val updates = p.updates
    val n = updates.length
    val nIns = updates.count(_.isInsert)
    val nDel = n - nIns
    val filtered = updates.count(u => w.cq.atomFilters.get(u.rel).exists(f => !f(u.t)))
    val errors = mutable.ArrayBuffer.empty[String]

    // The baselines are checked against an untimed CROWN pass.
    val reference = if (!w.baselines) None else {
      val r = new PassResult("core", nIns, nDel)
      Pass.run(new CrownEngine(w.cq, p.tree), w.cq, updates, r, null, null, -1)
      errors ++= r.errors
      Some(r)
    }

    val passSpan = if (trace != null) trace.id("bench.pass") else -1
    def round(traced: Boolean, duck: Boolean): Seq[PassResult] = p.engines.map { spec =>
      System.gc()
      val r = new PassResult(spec.layer, nIns, nDel)
      val duckAt = if (duck && (spec eq p.engines.head)) 4 else -1
      if (traced) {
        val span = trace.begin(passSpan)
        val s = System.nanoTime()
        val engine = spec.make()
        trace.leaf(trace.id(s"${spec.layer}.new"), s, System.nanoTime())
        Pass.run(engine, w.cq, updates, r, trace, new LayerIds(trace, spec.layer), duckAt)
        trace.end(span)
      } else Pass.run(spec.make(), w.cq, updates, r, null, null, duckAt)
      r
    }

    val tWarm = System.nanoTime()
    val warm = (1 to w.warmupPasses).map(k => round(traced = false, duck = k == 1))
    val timed = mutable.ArrayBuffer.empty[Seq[PassResult]]
    val traced = mutable.ArrayBuffer.empty[(Seq[PassResult], Int, Int)]
    val t0 = System.nanoTime()
    var k = 0
    while ((System.nanoTime() - t0) / 1e9 < a.seconds || timed.size < 3 ||
           (a.traced && traced.size < 2)) {
      if (a.traced && k % 2 == 1) {
        val from = trace.size
        val r = round(traced = true, duck = false)
        traced += ((r, from, trace.size))
      } else timed += round(traced = false, duck = false)
      k += 1
    }

    val tEnd = System.nanoTime()
    // ------------------------------------------------------ correctness gate
    val rounds = warm ++ timed ++ traced.map(_._1)
    errors ++= rounds.flatten.flatMap(_.errors)
    for (e <- p.engines.indices) {
      val first = rounds.head(e)
      val ref = reference.getOrElse(first)
      for (r <- rounds.map(_(e)) if !r.aborted) {
        if (r.deltas != ref.deltas || r.checksum != ref.checksum)
          errors += s"${r.layer}: a pass emitted ${r.deltas} deltas (checksum ${r.checksum}), " +
            s"the ${ref.layer} reference ${ref.deltas} (checksum ${ref.checksum})"
        if (r.enumResults != ref.enumResults)
          errors += s"${r.layer}: a pass enumerated ${r.enumResults} results, the reference ${ref.enumResults}"
        if (r.peakSpace != first.peakSpace || r.workOps != first.workOps)
          errors += s"${r.layer}: peak space ${r.peakSpace} / work ${r.workOps} differ from the " +
            s"first pass's ${first.peakSpace} / ${first.workOps}"
      }
    }
    val selfs = traced.map { case (_, from, until) => trace.selfTimes(from, until) }
    for (s <- selfs.drop(1) if s.view.mapValues(_._1).toMap != selfs.head.view.mapValues(_._1).toMap)
      errors += "span counts differ between traced passes"

    // ------------------------------------------------------------- metrics
    val measured = timed ++ traced.map(_._1)
    val attempted = measured.flatten.map(_.attempted).sum
    val failed = measured.flatten.map(_.failed).sum
    val ref = reference.getOrElse(rounds.head.head)
    def rate(r: Seq[PassResult]) = r.map(_.done).sum / (r.map(_.updateNanos).sum / 1e9)
    // The machine's neighbours only ever slow a pass down, so the timed
    // figures come from the faster half of the timed rounds.
    val kept = timed.sortBy(r => -rate(r)).take((timed.size + 1) / 2)
    def pooled(get: PassResult => Array[Long], size: PassResult => Int): Array[Long] = {
      val a = kept.flatten.flatMap(r => get(r).take(size(r))).toArray
      java.util.Arrays.sort(a)
      a
    }
    val ins = pooled(_.insertNanos, _.inserts)
    val del = pooled(_.deleteNanos, _.deletes)
    // NaN, printed as null, where a workload has no such updates.
    def us(sorted: Array[Long], q: Double) =
      if (sorted.isEmpty) Double.NaN else Stats.percentile(sorted, q) / 1e3
    val ups = timed.map(rate).toSeq
    val keptUps = kept.map(rate).toSeq
    // A GC pause that lands in one short request would swing a per-pass sum,
    // so each request's time is the median over passes.
    val fullEnum = (0 until Pass.Checkpoints).map(c =>
      Stats.median(timed.map(_.map(_.enumNanos(c)).sum / 1e9).toSeq)).sum

    println(f"workload ${w.name} seed ${a.seed}: $n%d updates per pass, insert share ${nIns.toDouble / n}%.4f, " +
      f"filtered share ${filtered.toDouble / n}%.4f, deltas per update ${ref.deltas.toDouble / n}%.4f, " +
      s"peak space ${rounds.head.map(_.peakSpace).sum}, tree height ${p.tree.height}")
    println(s"  why: ${w.why}")
    println(s"  ${warm.size} warm-up passes discarded; ${timed.size} timed passes of " +
      s"${p.engines.map(_.layer).mkString(" + ")}; closed loop, one caller")

    val e2e = Seq(
      Metric("setup_s", Stats.median(reps.map(_.setupNanos / 1e9)), "s") ->
        s"median of $SetupReps setups after $SetupWarmups discarded (generate, build stream, compile plan)",
      Metric("updates_per_s", Stats.median(keptUps), "1/s") ->
        s"median of the faster ${kept.size} of ${ups.size} timed passes",
      Metric("insert_p50_us", us(ins, 0.5), "us") -> s"n=${ins.length} inserts over ${kept.size} passes",
      Metric("insert_p99_us", us(ins, 0.99), "us") -> s"n=${ins.length}, ${ins.length / 100} beyond",
      Metric("delete_p50_us", us(del, 0.5), "us") -> s"n=${del.length} deletes over ${kept.size} passes",
      Metric("delete_p99_us", us(del, 0.99), "us") -> s"n=${del.length}, ${del.length / 100} beyond",
      Metric("peak_space_entries", rounds.head.map(_.peakSpace).sum.toDouble, "count") ->
        "largest spaceEntries at the 10 checkpoints; exact",
    )
    val fullEnumLine = f"full_enum_s = $fullEnum%.6f s (sum over the ${Pass.Checkpoints} requests of " +
      s"a pass of each request's median over ${timed.size} passes)"
    // setup_s leaves out JVM start and the cold first setup; these show them.
    val coldSetupS = jvmStartMs / 1e3 + cold.setupNanos / 1e9
    println(f"  wall: JVM start to main ${jvmStartMs / 1e3}%.2f s, setup and reference " +
      f"${(tWarm - tMain) / 1e9}%.2f s, warm-up ${(t0 - tWarm) / 1e9}%.2f s, timed ${(tEnd - t0) / 1e9}%.2f s")
    println(f"  cold: JVM start to the end of the first setup $coldSetupS%.3f s, " +
      f"JVM start to the first timed update ${jvmStartMs / 1e3 + (t0 - tMain) / 1e9}%.3f s")
    println(s"  updates_per_s by timed pass: ${ups.map(u => f"$u%.0f").mkString(" ")}")
    println("end-to-end (untraced passes):")
    for ((m, how) <- e2e) println(f"  ${m.name} = ${m.value}%.6f ${m.unit} ($how)")
    println(s"  $fullEnumLine")
    println(f"  failed_share = ${if (attempted == 0) 0.0 else failed.toDouble / attempted}%.6f ($failed of $attempted updates)")

    val metrics = if (!a.traced) e2e.map(_._1) else {
      val perLayer = layerMetrics(p, reps, coldSetupS, n, nIns, ref, timed.toSeq,
        traced.toSeq, selfs.toSeq, ups)
      println("per-layer (traced passes; times are medians per pass, counts are exact):")
      for (m <- perLayer) println(f"  ${m.name} = ${m.value}%.6f ${m.unit}")
      // The MXBeans count these in whole milliseconds, too coarse for the JSON.
      def jvmMs(f: PassResult => Long) = Stats.median(timed.map(_.map(f).sum.toDouble).toSeq)
      println(f"  jvm.gc_ms = ${jvmMs(_.gcMillis)}%.1f ms, jvm.jit_ms = ${jvmMs(_.jitMillis)}%.1f ms " +
        s"(per timed pass), jvm.start_ms = $jvmStartMs ms (JVM start to main)")
      printSelfTable(selfs.toSeq, reps)
      val file = new File(a.out, s"traces/${w.name}-seed${a.seed}.spans.csv.gz")
      trace.write(file)
      println(s"  ${trace.size} spans written to $file")
      perLayer
    }

    val correct = errors.isEmpty
    if (correct) println("correctness gate: passed")
    else {
      println(s"correctness gate: FAILED (${errors.size} problems)")
      errors.take(20).foreach(e => println(s"  $e"))
    }
    println(json(correct, attempted, failed, metrics))
    correct
  }

  private def layerMetrics(p: Prepared, reps: Seq[Prepared], coldSetupS: Double, n: Int,
                           nIns: Int, ref: PassResult, timed: Seq[Seq[PassResult]],
                           traced: Seq[(Seq[PassResult], Int, Int)],
                           selfs: Seq[Map[String, (Long, Long)]], ups: Seq[Double]): Seq[Metric] = {
    def med(xs: Iterable[Double]) = Stats.median(xs.toSeq)
    def selfMs(suffixes: String*) = med(selfs.map(_.collect {
      case (k, (_, ns)) if suffixes.exists(k.endsWith) => ns / 1e6 }.sum))
    def calls(names: String*) = names.map(k => selfs.head.get(k).fold(0L)(_._1)).sum.toDouble
    def engine(layer: String) = timed.head.find(_.layer == layer)
    def opsPerUpdate(layer: String) = engine(layer).fold(0.0)(_.workOps.toDouble / n)
    def peak(layer: String) = engine(layer).fold(0.0)(_.peakSpace.toDouble)
    def jvm(f: PassResult => Long) = med(timed.map(_.map(f).sum.toDouble))
    val tracedUps = traced.map { case (r, _, _) => r.map(_.done).sum / (r.map(_.updateNanos).sum / 1e9) }
    Seq(
      Metric("bench.gen_ms", med(reps.map(_.genNanos / 1e6)), "ms"),
      Metric("stream.build_ms", med(reps.map(_.buildNanos / 1e6)), "ms"),
      Metric("core.plan.compile_ms", med(reps.map(_.compileNanos / 1e6)), "ms"),
      Metric("setup.cold_s", coldSetupS, "s"),
      Metric("update.self_ms", selfMs(".insert", ".delete"), "ms"),
      Metric("enum_full.self_ms", selfMs(".enum_full"), "ms"),
      Metric("harness.self_ms", selfMs("bench.pass"), "ms"),
      Metric("enum_full.first_result_us", med(traced.map(_._1.map(_.firstResultNanos).max / 1e3)), "us"),
      Metric("enum_full.gap_max_us", med(traced.map(_._1.map(_.gapMaxNanos).max / 1e3)), "us"),
      Metric("enum_full.results", timed.head.head.enumResults.toDouble, "count"),
      Metric("core.insert.calls", calls("core.insert"), "count"),
      Metric("core.delete.calls", calls("core.delete"), "count"),
      Metric("core.work_ops_per_update", opsPerUpdate("core"), "ops/update"),
      Metric("baseline.stdivm.calls", calls("baseline.stdivm.insert", "baseline.stdivm.delete"), "count"),
      Metric("baseline.hivm.calls", calls("baseline.hivm.insert", "baseline.hivm.delete"), "count"),
      Metric("baseline.stdivm.work_ops_per_update", opsPerUpdate("baseline.stdivm"), "ops/update"),
      Metric("baseline.hivm.work_ops_per_update", opsPerUpdate("baseline.hivm"), "ops/update"),
      Metric("baseline.stdivm.peak_space", peak("baseline.stdivm"), "count"),
      Metric("baseline.hivm.peak_space", peak("baseline.hivm"), "count"),
      Metric("baseline.budget_aborts", (timed.flatten ++ traced.flatMap(_._1)).count(_.aborted).toDouble, "count"),
      Metric("deltas_per_update", ref.deltas.toDouble / n, "ratio"),
      Metric("insert_share", nIns.toDouble / n, "ratio"),
      Metric("tree_height", p.tree.height.toDouble, "count"),
      Metric("jvm.alloc_bytes_per_update", med(timed.map(r => r.map(_.allocBytes).sum.toDouble / r.map(_.done).sum)), "B/update"),
      Metric("jvm.gc_count", jvm(_.gcCount), "count"),
      Metric("trace.spans_per_pass", (traced.head._3 - traced.head._2).toDouble, "count"),
      Metric("trace.overhead", med(ups) / med(tracedUps) - 1, "ratio"),
    )
  }

  private def printSelfTable(selfs: Seq[Map[String, (Long, Long)]], reps: Seq[Prepared]): Unit = {
    println("  self time per traced round (one pass of each engine), by span, median over rounds:")
    println(f"    ${"span"}%-28s ${"calls"}%12s ${"self_ms"}%12s")
    for (name <- selfs.head.keys.toSeq.sorted) {
      val c = selfs.head(name)._1
      val ms = Stats.median(selfs.map(_.get(name).fold(0.0)(_._2 / 1e6)))
      println(f"    $name%-28s $c%12d $ms%12.3f")
    }
    for ((name, f) <- Seq[(String, Prepared => Long)]("bench.gen" -> (_.genNanos),
           "stream.build" -> (_.buildNanos), "core.plan.compile" -> (_.compileNanos)))
      println(f"    $name%-28s ${1}%12d ${Stats.median(reps.map(f(_) / 1e6))}%12.3f  (per setup)")
  }

  def json(correct: Boolean, attempted: Long, failed: Long, metrics: Seq[Metric]): String = {
    def num(v: Double) = if (v.isNaN || v.isInfinite) "null" else v.toString
    val ms = metrics.map(m => s""""${m.name}": {"value": ${num(m.value)}, "unit": "${m.unit}"}""")
    s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {${ms.mkString(", ")}}}"""
  }
}
