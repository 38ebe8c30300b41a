package repro.bench

import org.apache.spark.sql.SparkSession
import repro.baseline.{Budget, StandardIvm}
import repro.core._
import repro.exp.Runners
import repro.ghd.BagEngine
import repro.stream.Driver
import repro.workload.Queries

/** CROWN's update time on the streams whose tuples are not pairs of
  * integers: the SNB-lite streams of Figs 7 and 8 (3-ary `person` and
  * `message` atoms, `String` names, `null` reply ids), and Fig 7's two
  * dumbbells, whose `BagEngine` feeds CROWN 3-ary triangle tuples.
  * `StandardIvm` runs beside CROWN on the SNB streams as a control.
  *
  * Spark only generates the streams and is stopped before any timing. Each
  * engine runs once to warm up, then `reps` times; one line per stream and
  * engine gives the median time, the stream's share of tuples of arity ≤ 2
  * and of tuples of integers only, and the deltas and peak space.
  *
  * {{{
  * sbt "bench/Test/runMain repro.bench.WideTupleTiming 5"
  * sbt "bench/Test/runMain repro.bench.WideTupleTiming 5 snb-q1,dumbbell-proj"
  * }}}
  */
object WideTupleTiming {
  private type Mk = () => IncrementalEngine

  def main(args: Array[String]): Unit = {
    val reps = args(0).toInt
    val only = if (args.length > 1) args(1).split(",").toSet else Set.empty[String]
    val spark = SparkSession.builder.master("local[2]").appName("wide-tuple-timing")
      .config("spark.ui.enabled", "false").config("spark.driver.host", "127.0.0.1")
      .config("spark.sql.shuffle.partitions", "4").getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")

    def pair(q: CQ, wrap: Mk => Mk): Seq[(String, Mk)] = Seq(
      "crown" -> wrap(() => Compiler.compile(q)),
      "stdivm" -> wrap(() => new StandardIvm(q, Budget.maxOpsPerUpdate)))
    val q4 = Queries.snbQ4Extended(100)
    val q4Agg: Mk => Mk = mk => () =>
      new GroupCountDistinctAdapter(mk(), q4.output, Vector("nm", "t"), "m")
    val cases: Seq[(String, () => Seq[(String, Mk)], () => Vector[Upd])] =
      Seq(Queries.snbQ1, Queries.snbQ2(100), Queries.snbQ3(100)).map(q =>
        (q.name, () => pair(q, identity), () => Runners.snbStream(spark, q, 1.0, windowDays = 90))) ++
      Seq((q4.name, () => pair(q4, q4Agg), () => Runners.snbStream(spark, q4, 1.0, windowDays = 90))) ++
      Seq(0.5, 1.0, 2.0).map { sf =>
        val q = Queries.snbQ2(100)
        (s"fig8-q2-sf$sf", () => pair(q, identity), () => Runners.snbStream(spark, q, sf, windowDays = 120))
      } ++
      Seq((Queries.dumbbellFull(10), 10), (Queries.dumbbellProj(100), 100)).map { case (q, pm) =>
        (q.name, () => Seq("crown" -> ((() => new BagEngine(q.output, pm)): Mk)),
          () => Runners.graphStream(spark, q))
      }
    val chosen = cases.filter(c => only.isEmpty || only(c._1)).map(c => (c._1, c._2(), c._3()))
    spark.stop()

    for ((name, engines, ups) <- chosen) {
      def integral(u: Upd) = u.t.forall { case _: Long | _: Int => true; case _ => false }
      val n = ups.size.toDouble
      for ((label, mk) <- engines) {
        Driver.run(mk(), ups, budgetMillis = 600000L)
        val runs = (1 to reps).map { _ => System.gc(); Driver.run(mk(), ups, budgetMillis = 600000L) }
        val ms = runs.map(_.millis).sorted
        println(f"RESULT case=$name engine=$label updates=${ups.size} " +
          f"arity_le2=${ups.count(_.t.length <= 2) / n}%.3f integral=${ups.count(integral) / n}%.3f " +
          f"deltas=${runs.head.deltas} space=${runs.head.peakSpace} finished=${runs.forall(_.finished)} " +
          f"median_ms=${ms(reps / 2)}%.1f ms=${ms.map(m => f"$m%.0f").mkString("/")}")
      }
    }
  }
}
