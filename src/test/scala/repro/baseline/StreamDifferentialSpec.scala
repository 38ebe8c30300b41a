package repro.baseline

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{CQ, Compiler, IncrementalEngine, Tup}
import repro.core.Tup.T
import repro.stream.Updates
import repro.workload.Queries
import scala.collection.mutable
import scala.util.Random

/** CROWN and both baselines, fed the same FIFO edge stream of a few thousand
  * updates over a skewed graph, must emit the same delta after every update
  * (the brute-force specs check each engine only on a 5-value domain).
  */
class StreamDifferentialSpec extends AnyFunSuite {

  /** Distinct edges whose endpoints are skewed towards low vertex ids. */
  private def edges(nV: Int, m: Int, seed: Long): Vector[T] = {
    val rnd = new Random(seed)
    def vertex() = (math.pow(rnd.nextDouble(), 2) * nV).toLong
    Iterator.continually(Tup(vertex(), vertex())).distinct.take(m).toVector
  }

  private def agree(cq: CQ, seed: Long): Unit = {
    val base = Updates.fifoWindow("G", edges(nV = 300, m = 600, seed), w = 200)
    val updates = Updates.expandSelfJoin(base, Queries.graphCopies(cq))
    val engines: Seq[IncrementalEngine] = Seq(Compiler.compile(cq), new StandardIvm(cq), new Hivm(cq))
    var deltas = 0L
    for ((u, i) <- updates.zipWithIndex) {
      val got = engines.map { e =>
        val d = mutable.Set.empty[T]
        val n = e.processUpdate(u)(d += _)
        assert(n == d.size, s"${e.name} emitted a duplicate at update $i ($u)")
        d
      }
      for ((e, d) <- engines.zip(got).tail)
        assert(d == got.head, s"${e.name} vs ${engines.head.name} at update $i ($u): " +
          s"extra=${d -- got.head} missing=${got.head -- d}")
      deltas += got.head.size
    }
    assert(deltas > 100, s"the stream produced only $deltas deltas")
    assert(engines.forall(_.fullSet.isEmpty), "the drained window left results")
  }

  test("3-hop proj: CROWN, StandardIVM and HIVM deltas agree on a FIFO stream") {
    agree(Queries.hop3Proj(1000), seed = 1)
  }
  test("3-hop full (10% filter): CROWN, StandardIVM and HIVM deltas agree on a FIFO stream") {
    agree(Queries.hop3Full(100), seed = 2)
  }
  test("4-hop proj: CROWN, StandardIVM and HIVM deltas agree on a FIFO stream") {
    agree(Queries.hop4Proj(1000), seed = 3)
  }
}
