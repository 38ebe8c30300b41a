package repro.core

import com.sun.management.HotSpotDiagnosticMXBean
import java.lang.management.ManagementFactory
import java.nio.file.{Files, Paths}
import org.scalatest.funsuite.AnyFunSuite
import scala.sys.process._

/** CROWN's hot methods stay within C2's inlining budget: a method larger
  * than `FreqInlineSize` bytecode bytes is never inlined into its callers,
  * however often it runs. Sizes are read from `javap -c -p` on the compiled
  * class: a method's size is its last instruction's offset + 1.
  */
class InlineBudgetSpec extends AnyFunSuite {

  private val hot = Seq("rUpdate", "shiftVs", "shiftCount", "pUpdate", "shiftIndex", "run")

  /** Bytecode size of each method of `cls` in the class directory `dir`. */
  private def methodSizes(javap: String, dir: String, cls: String): Map[String, Int] = {
    val header = """^  \S.*?([\w$]+)\(.*\);$""".r
    val insn = """^\s+(\d+): [a-z].*""".r
    var cur: String = null
    val sizes = scala.collection.mutable.Map.empty[String, Int]
    for (line <- Seq(javap, "-c", "-p", "-cp", dir, cls).!!.linesIterator) line match {
      case header(name) => cur = name
      case insn(off) if cur != null => sizes(cur) = off.toInt + 1
      case _ =>
    }
    sizes.toMap
  }

  test("CROWN's update and enumeration methods fit C2's FreqInlineSize") {
    val javap = Paths.get(sys.props("java.home"), "bin", "javap")
    assume(Files.isExecutable(javap), s"no javap at $javap")
    val dir = Paths.get(classOf[CrownEngine].getProtectionDomain.getCodeSource.getLocation.toURI)
    assume(Files.isDirectory(dir), s"CrownEngine is not loaded from a class directory: $dir")
    val limit = ManagementFactory.getPlatformMXBean(classOf[HotSpotDiagnosticMXBean])
      .getVMOption("FreqInlineSize").getValue.toInt
    val sizes = methodSizes(javap.toString, dir.toString, classOf[CrownEngine].getName)
    for (m <- hot) {
      val size = sizes.getOrElse(m, fail(s"javap lists no method $m"))
      assert(size <= limit, s"$m is $size bytecode bytes, over FreqInlineSize $limit")
    }
  }
}
