package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.exp.Runners
import repro.exp.Runners._

/** spark-submit entrypoints, one per paper exhibit. Each prints the same
  * table its bench twin prints (bench/src/test/...), so
  * `spark-submit --class repro.jobs.JobFig7 target/scala-2.13/repro_*.jar`
  * regenerates a figure's numbers standalone.
  */
object JobSupport {
  def session(app: String): SparkSession =
    SparkSession.builder.master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(app)
      .config("spark.sql.shuffle.partitions", "64")
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.ui.enabled", "false")
      .getOrCreate()

  def rowsTable(title: String, rows: Seq[Row]): Unit =
    printTable(title, Seq("query", "engine", "mode", "ms", "deltas", "space", "status"),
      rows.map(r => Seq(r.query, r.engine, r.mode, r.ms, r.deltas.toString,
        r.space.toString, if (r.finished) "ok" else "DNF")))
}

object JobTable1 {
  def main(args: Array[String]): Unit =
    printTable("Table 1: engine features", table1Header, table1())
}

object JobFig7 {
  def main(args: Array[String]): Unit = {
    val spark = JobSupport.session("fig7")
    try JobSupport.rowsTable(fig7Title, fig7(spark)) finally spark.stop()
  }
}

object JobFig8 {
  def main(args: Array[String]): Unit = {
    val spark = JobSupport.session("fig8")
    try printTable("Fig 8: avg update time vs scale factor",
      Seq("sf", "engine", "ms", "us/update", "status"),
      fig8(spark).map { case (sf, r) =>
        Seq(sf.toString, r.engine, r.ms, f"${r.avgLatUs}%.1f",
          if (r.finished) "ok" else "DNF")
      }) finally spark.stop()
  }
}

object JobFig9 {
  def main(args: Array[String]): Unit =
    printTable("Fig 9: CROWN runtime vs enclosureness",
      Seq("k", "lambda_T", "updates", "ms", "workOps"),
      fig9().map(r => Seq(r.target.toString, f"${r.lambdaT}%.1f", r.updates.toString,
        f"${r.millis}%.1f", r.workOps.toString)))
}

object JobFig10 {
  def main(args: Array[String]): Unit = {
    val spark = JobSupport.session("fig10")
    try printTable("Fig 10: runtime vs parallelism (4-Hop, HyperCube)",
      Seq("p", "makespan_ms", "wall_ms", "deltas"),
      fig10(spark).map(s => Seq(s.p.toString, f"${s.makespanMillis}%.0f",
        f"${s.wallMillis}%.0f", s.totalDeltas.toString))) finally spark.stop()
  }
}

object JobFig11 {
  def main(args: Array[String]): Unit = {
    val spark = JobSupport.session("fig11")
    try printTable("Fig 11: delta latency (insertion-only stream)",
      Seq("engine", "avg_us", "p99_us", "q2_us", "q4_us"),
      fig11(spark).map(r => Seq(r.engine, f"${r.avgLatUs}%.1f", f"${r.p99LatUs}%.1f",
        f"${r.earlyAvgUs}%.1f", f"${r.lateAvgUs}%.1f"))) finally spark.stop()
  }
}

object JobFig12 {
  def main(args: Array[String]): Unit = {
    val spark = JobSupport.session("fig12")
    try {
      printTable("Fig 12(a): 3-Hop runtime vs selectivity",
        Seq("permille", "engine", "ms", "deltas", "status"),
        fig12(spark).map { case (pm, r) =>
          Seq(pm.toString, r.engine, r.ms, r.deltas.toString,
            if (r.finished) "ok" else "DNF") })
      printTable("Fig 12(b): 4-Hop-proj runtime vs selectivity",
        Seq("permille", "engine", "ms", "deltas", "status"),
        fig12(spark, fourHop = true).map { case (pm, r) =>
          Seq(pm.toString, r.engine, r.ms, r.deltas.toString,
            if (r.finished) "ok" else "DNF") })
    } finally spark.stop()
  }
}
