package repro.baseline

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{CQ, Compiler, EngineCheck, IncrementalEngine, Tup}
import repro.core.Tup.T
import repro.ghd.BagEngine
import repro.stream.Updates
import repro.workload.Queries
import scala.util.Random

/** CROWN and both baselines, fed the same FIFO edge stream of a few thousand
  * updates over a skewed graph, must emit the same delta after every update
  * and hold the same full result every 500 updates (the brute-force specs
  * check each engine only on a 5-value domain). The cyclic dumbbell runs
  * through the GHD bag engine, whose 3-ary bag tuples are CROWN's wide
  * keys, against standard change propagation. Once the window has drained,
  * no engine may hold a dictionary entry.
  */
class StreamDifferentialSpec extends AnyFunSuite {

  /** Distinct edges whose endpoints are skewed towards low vertex ids. */
  private def edges(nV: Int, m: Int, seed: Long): Vector[T] = {
    val rnd = new Random(seed)
    def vertex() = (math.pow(rnd.nextDouble(), 2) * nV).toLong
    Iterator.continually(Tup(vertex(), vertex())).distinct.take(m).toVector
  }

  private def agree(cq: CQ, seed: Long, nV: Int = 300)(
      engines: Seq[IncrementalEngine] = Seq(Compiler.compile(cq), new StandardIvm(cq), new Hivm(cq))): Unit = {
    val base = Updates.fifoWindow("G", edges(nV, m = 600, seed), w = 200)
    val updates = Updates.expandSelfJoin(base, Queries.graphCopies(cq))
    EngineCheck.agreeOnStream(engines, updates)
  }

  test("3-hop proj: CROWN, StandardIVM and HIVM deltas agree on a FIFO stream") {
    agree(Queries.hop3Proj(1000), seed = 1)()
  }
  test("3-hop full (10% filter): CROWN, StandardIVM and HIVM deltas agree on a FIFO stream") {
    agree(Queries.hop3Full(100), seed = 2)()
  }
  test("4-hop proj: CROWN, StandardIVM and HIVM deltas agree on a FIFO stream") {
    agree(Queries.hop4Proj(1000), seed = 3)()
  }
  test("dumbbell: the GHD bag engine and StandardIVM deltas agree on a FIFO stream") {
    // the same stream length on 60 vertices: on 300 the stream closes too few triangles
    val cq = Queries.dumbbellFull(1000)
    agree(cq, seed = 4, nV = 60)(Seq(new BagEngine(cq.output), new StandardIvm(cq)))
  }
}
