package repro.bench

import repro.SparkSpec
import repro.exp.Runners
import repro.exp.Runners._

/** Benchmark suites, one per paper exhibit (`sbt "bench/test"`).
  *
  * Each prints the table that reproduces the corresponding paper
  * table/figure (recorded next to the paper's numbers in EXPERIMENTS.md)
  * and asserts the qualitative *shape* the paper claims — who wins, what
  * stays flat, what blows up — rather than absolute numbers.
  *
  * Scales default to laptop-size (env-overridable: REPRO_NV, REPRO_NE,
  * REPRO_WINDOW, REPRO_SNB_SF, REPRO_BUDGET_MS).
  */
class Table1FeaturesBench extends SparkSpec {
  test("Table 1: feature matrix of the compared engines") {
    printTable("Table 1: engine features", table1Header, table1())
    val t = table1()
    assert(t.exists(r => r.head == "Delta enumeration" && r(1) == "yes" && r(2) == "no"))
    assert(t.exists(r => r.head == "Internal" && r(1) == "This paper"))
  }
}

class Fig7ProcessingBench extends SparkSpec {
  test("Fig 7: total processing time, all queries x engines, delta & full modes") {
    val rows = fig7(spark)
    printTable(fig7Title,
      Seq("query", "engine", "mode", "ms", "deltas", "space", "status"),
      rows.map(r => Seq(r.query, r.engine, r.mode, r.ms, r.deltas.toString,
        r.space.toString, if (r.finished) "ok" else "DNF")))

    // Shape: CROWN finishes everything (the paper: only CROWN finishes all)
    val crown = rows.filter(_.engine == "CROWN")
    assert(crown.forall(_.finished), s"CROWN DNF on ${crown.filterNot(_.finished).map(_.query)}")

    // Shape: per query, CROWN's delta-mode time beats or matches every
    // baseline that finished, and beats DNFs by definition
    for (q <- rows.map(_.query).distinct) {
      val c = rows.find(r => r.query == q && r.engine == "CROWN" && r.mode == "delta").get
      for (b <- rows.filter(r => r.query == q && r.engine != "CROWN" && r.mode == "delta"))
        if (b.finished && b.millis > 500) // sub-500ms runs are constant-factor noise
          assert(c.millis <= b.millis * 1.5,
            s"$q: CROWN ${c.millis}ms should not lose clearly to ${b.engine} ${b.millis}ms")
    }
    // Shape: full-enumeration mode does not change CROWN's cost class
    for (q <- rows.map(_.query).distinct) {
      val d = rows.find(r => r.query == q && r.engine == "CROWN" && r.mode == "delta").get
      val f = rows.find(r => r.query == q && r.engine == "CROWN" && r.mode == "full").get
      assert(f.millis <= math.max(d.millis * 6, d.millis + 3000),
        s"$q: CROWN full mode exploded: delta=${d.millis} full=${f.millis}")
    }
  }
}

class Fig8ScaleBench extends SparkSpec {
  test("Fig 8: average processing time vs scale factor (SNB Q2)") {
    val rows = fig8(spark, sfs = Seq(0.5, 1.0, 2.0))
    printTable("Fig 8: avg update time vs SF",
      Seq("sf", "engine", "ms", "us/update", "status"),
      rows.map { case (sf, r) => Seq(sf.toString, r.engine, r.ms,
        f"${r.avgLatUs}%.1f", if (r.finished) "ok" else "DNF") })
    // Shape: CROWN's per-update cost stays ~flat across SF
    val crown = rows.filter(_._2.engine == "CROWN").sortBy(_._1)
    assert(crown.forall(_._2.finished))
    val lo = crown.head._2.avgLatUs
    val hi = crown.last._2.avgLatUs
    assert(hi <= math.max(lo * 4, lo + 30),
      s"CROWN per-update time should stay flat: $lo -> $hi us")
  }
}

class Fig9EnclosurenessBench extends SparkSpec {
  test("Fig 9: CROWN maintenance cost vs enclosureness lambda") {
    val rows = fig9(Seq(2, 4, 8, 16, 32, 64))
    printTable("Fig 9: runtime vs lambda",
      Seq("k", "lambda_T", "updates", "ms", "workOps", "ops/update"),
      rows.map(r => Seq(r.target.toString, f"${r.lambdaT}%.2f", r.updates.toString,
        f"${r.millis}%.1f", r.workOps.toString,
        f"${r.workOps.toDouble / r.updates}%.1f")))
    // Shape: cost per update grows ~linearly with lambda
    val perUpd = rows.map(r => r.workOps.toDouble / r.updates)
    assert(perUpd.last > perUpd.head * 4,
      s"work/update should grow with lambda: ${perUpd.head} -> ${perUpd.last}")
    val lambdas = rows.map(_.lambdaT)
    assert(lambdas.last > lambdas.head, "measured lambda_T should grow with the knob")
  }
}

class Fig10ParallelBench extends SparkSpec {
  test("Fig 10: runtime vs parallelism (4-Hop over HyperCube shards)") {
    val stats = fig10(spark, ps = Seq(1, 2, 4, 8))
    printTable("Fig 10: runtime vs p",
      Seq("p", "makespan_ms", "wall_ms", "deltas", "speedup"),
      stats.map(s => Seq(s.p.toString, f"${s.makespanMillis}%.0f",
        f"${s.wallMillis}%.0f", s.totalDeltas.toString,
        f"${stats.head.makespanMillis / s.makespanMillis}%.2f")))
    // Shape: all runs produce the same delta stream, and sharding helps
    assert(stats.map(_.totalDeltas).distinct.size == 1, "delta totals diverged")
    val speedup8 = stats.head.makespanMillis / stats.last.makespanMillis
    assert(speedup8 > 1.5, s"p=8 speedup only $speedup8")
  }
}

class Fig11LatencyBench extends SparkSpec {
  test("Fig 11: per-update delta latency, CROWN vs Trill analog") {
    val rows = fig11(spark)
    printTable("Fig 11: latency (insertion-only stream)",
      Seq("engine", "avg_us", "p99_us", "q2_us", "q4_us", "drift"),
      rows.map(r => Seq(r.engine, f"${r.avgLatUs}%.1f", f"${r.p99LatUs}%.1f",
        f"${r.earlyAvgUs}%.1f", f"${r.lateAvgUs}%.1f",
        f"${r.lateAvgUs / math.max(r.earlyAvgUs, 0.1)}%.2f")))
    val crown = rows.find(_.engine == "CROWN").get
    val trill = rows.find(_.engine.startsWith("Trill")).get
    // Shape: CROWN's latency is lower and stable; the standard-CP engine
    // degrades as its views grow (the paper: <90ms stable vs >6s growing)
    assert(crown.avgLatUs < trill.avgLatUs,
      s"CROWN ${crown.avgLatUs}us vs Trill ${trill.avgLatUs}us")
    assert(crown.p99LatUs < trill.p99LatUs,
      s"CROWN p99 ${crown.p99LatUs}us vs Trill ${trill.p99LatUs}us")
    // absolute latency degradation (q4 - q2) is larger for standard CP:
    // its growing views add maintenance latency on top of the shared
    // output-size growth
    val crownRise = crown.lateAvgUs - crown.earlyAvgUs
    val trillRise = trill.lateAvgUs - trill.earlyAvgUs
    assert(trillRise > crownRise,
      s"standard CP should degrade more (crown +${crownRise}us, trill +${trillRise}us)")
  }
}

class Fig12SelectivityBench extends SparkSpec {
  test("Fig 12: runtime vs selectivity of the last-hop filter") {
    val rows3 = fig12(spark, permilles = Seq(1, 10, 100, 500))
    printTable("Fig 12(a): 3-hop full, runtime vs filter permille",
      Seq("permille", "engine", "ms", "deltas", "status"),
      rows3.map { case (pm, r) => Seq(pm.toString, r.engine, r.ms,
        r.deltas.toString, if (r.finished) "ok" else "DNF") })
    val rows4 = fig12(spark, permilles = Seq(1, 100), fourHop = true)
    printTable("Fig 12(b): 4-hop proj, runtime vs filter permille",
      Seq("permille", "engine", "ms", "deltas", "status"),
      rows4.map { case (pm, r) => Seq(pm.toString, r.engine, r.ms,
        r.deltas.toString, if (r.finished) "ok" else "DNF") })

    // Shape: at low selectivity CROWN cost tracks input+output, while
    // standard CP still pays for the intermediate join view
    val pmLow = 1
    val crownLow = rows3.find { case (pm, r) => pm == pmLow && r.engine == "CROWN" }.get._2
    val flinkLow = rows3.find { case (pm, r) => pm == pmLow && r.engine.startsWith("Flink") }.get._2
    if (flinkLow.finished)
      assert(crownLow.millis < flinkLow.millis,
        s"low selectivity: CROWN ${crownLow.millis}ms vs StdCP ${flinkLow.millis}ms")
    // CROWN runtime grows with output size (selectivity knob is real)
    val crown3 = rows3.filter(_._2.engine == "CROWN").sortBy(_._1)
    assert(crown3.last._2.deltas > crown3.head._2.deltas)
  }
}
