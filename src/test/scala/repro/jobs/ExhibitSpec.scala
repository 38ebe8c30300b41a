package repro.jobs

import java.io.ByteArrayOutputStream
import org.scalatest.funsuite.AnyFunSuite

/** The spark-submit entry, run in-process on the exhibits that start no
  * SparkSession (another exhibit would stop the test run's shared session).
  */
class ExhibitSpec extends AnyFunSuite {

  /** What `Exhibit.main(args)` prints, line by line. */
  private def run(args: String*): Vector[String] = {
    val out = new ByteArrayOutputStream
    Console.withOut(out)(Exhibit.main(args.toArray))
    out.toString("UTF-8").linesIterator.toVector
  }

  /** The data rows' cells of the table printed under `title`. */
  private def rows(lines: Vector[String], title: String): Vector[Vector[String]] = {
    val table = lines.dropWhile(_ != s"== $title ==").drop(1).takeWhile(_.startsWith("|"))
    assert(table.nonEmpty, s"no table titled '$title' in:\n${lines.mkString("\n")}")
    table.drop(2).map(_.split('|').map(_.trim).drop(1).toVector)
  }

  test("table1 prints Table 1's title and its five feature rows") {
    val t = rows(run("table1"), "Table 1: engine features")
    assert(t.map(_.head) ==
      Vector("Distributed", "Full enumeration", "Delta enumeration", "Updates", "Internal"))
    assert(t.forall(_.length == 6))
  }

  test("fig9 prints one row per k of the default sweep") {
    val t = rows(run("fig9"), "Fig 9: CROWN runtime vs enclosureness lambda_T")
    assert(t.map(_.head) == Vector("1", "2", "4", "8", "16", "32", "64"))
    assert(t.forall(_.length == 6))
  }

  test("an unknown or missing exhibit name throws, naming the valid ones") {
    for (args <- Seq(Seq("nope"), Seq.empty[String])) {
      val e = intercept[IllegalArgumentException](run(args: _*))
      for (n <- Seq("table1", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12"))
        assert(e.getMessage.contains(n), s"'${e.getMessage}' does not name $n")
    }
  }
}
