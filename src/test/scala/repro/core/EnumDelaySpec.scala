package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.stream.Updates
import repro.workload.Queries
import scala.util.Random

/** Constant-delay full enumeration (§5), asserted on CROWN's step counter:
  * the most steps between two consecutive results stays within
  * `3·levels − 2` (derived at `CrownEngine.enumerateFull`), a bound set by
  * the query's plan alone, at stream sizes 16× apart. Queries with a result
  * predicate are left out: a rejected result has no delay bound.
  */
class EnumDelaySpec extends AnyFunSuite {

  /** Distinct uniform random edges over `m / 2` vertices. */
  private def edges(m: Int, seed: Long): Vector[Tup.T] = {
    val rnd = new Random(seed)
    def vertex() = rnd.nextInt(m / 2).toLong
    Iterator.continually(Tup(vertex(), vertex())).distinct.take(m).toVector
  }

  for (cq <- Seq(Queries.hop3Full(1000), Queries.star3(100), Queries.hop4Proj(1000)))
    test(s"${cq.name}: full enumeration delay is bounded by the plan's levels, not |D|") {
      val maxima = for (m <- Seq(200, 800, 3200)) yield {
        val e = new CrownEngine(cq, JoinTree.choose(cq).get)
        val bound = 3L * e.fullEnumLevels - 2
        val base = Updates.fifoWindow("G", edges(m, seed = m), w = m / 2)
        val updates = Updates.expandSelfJoin(base, Queries.graphCopies(cq))
        var worst = 0L
        var results = 0L
        for ((u, i) <- updates.zipWithIndex) {
          e.processUpdate(u)(_ => ())
          if (i % (updates.length / 8) == 0) {
            var n = 0L
            e.enumerateFull { _ => n += 1; true }
            assert(e.fullEnumMaxSteps <= bound,
              s"m=$m update $i: ${e.fullEnumMaxSteps} steps between results, bound $bound")
            worst = math.max(worst, e.fullEnumMaxSteps)
            results = math.max(results, n)
          }
        }
        assert(results > m / 10, s"m=$m: at most $results results, too few to test the delay")
        worst
      }
      info(s"largest delay in steps at m = 200/800/3200 edges: ${maxima.mkString("/")}")
    }
}
