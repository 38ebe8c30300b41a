package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.exp.Runners._

/** The spark-submit entry: prints one paper exhibit's table(s), built and
  * formatted by [[repro.exp.Runners]] exactly as its bench suite prints them,
  * at the runners' default sweeps:
  * `spark-submit --class repro.jobs.Exhibit target/scala-2.13/repro_2.13-*.jar fig7`.
  */
object Exhibit {
  def main(args: Array[String]): Unit = {
    val name = args.headOption.getOrElse("")
    def withSpark(body: SparkSession => Unit): Unit = {
      val spark = SparkSession.builder.master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
        .appName(name)
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.ui.enabled", "false")
        .getOrCreate()
      try body(spark) finally spark.stop()
    }
    name match {
      case "table1" => printTable(table1Table)
      case "fig7" => withSpark(spark => printTable(fig7Table(fig7(spark))))
      case "fig8" => withSpark(spark => printTable(fig8Table(fig8(spark))))
      case "fig9" => printTable(fig9Table(fig9()))
      case "fig10" => withSpark(spark => printTable(fig10Table(fig10(spark))))
      case "fig11" => withSpark(spark => printTable(fig11Table(fig11(spark))))
      case "fig12" => withSpark { spark =>
        printTable(fig12Table(fig12(spark), fourHop = false))
        printTable(fig12Table(fig12(spark, fourHop = true), fourHop = true))
      }
      case _ => throw new IllegalArgumentException(
        s"unknown exhibit '$name': expected one of table1, fig7, fig8, fig9, fig10, fig11, fig12")
    }
  }
}
