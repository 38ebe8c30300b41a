package crownbench

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{CrownEngine, IncrementalEngine, JoinTree, Upd}
import repro.core.Tup.T
import repro.stream.Updates
import repro.workload.Queries

class GateSpec extends AnyFunSuite {

  private val cq = Queries.hop3Proj(1000)
  private val tree = JoinTree.choose(cq).get
  private val updates: Array[Upd] = Updates.expandSelfJoin(
    Updates.fifoWindow("G", Gen.edges(60, 400, seed = 7).toSeq, 120), Queries.graphCopies(cq)).toArray

  /** Passes every delta of `inner` on except the `dropAt`-th. */
  private final class DropOne(inner: IncrementalEngine, dropAt: Long) extends IncrementalEngine {
    private var seen = 0L
    def name: String = inner.name
    def processUpdate(u: Upd)(emit: T => Unit): Long =
      inner.processUpdate(u) { t => seen += 1; if (seen != dropAt) emit(t) }
    def enumerateFull(cb: T => Boolean): Unit = inner.enumerateFull(cb)
    def spaceEntries: Long = inner.spaceEntries
    def workOps: Long = inner.workOps
  }

  private def pass(engine: IncrementalEngine, duckAt: Int = -1): PassResult = {
    val ins = updates.count(_.isInsert)
    val r = new PassResult("core", ins, updates.length - ins)
    Pass.run(engine, cq, updates, r, null, null, duckAt)
    r
  }

  test("the generator is deterministic in its seed and yields distinct edges") {
    val a = Gen.edges(60, 400, seed = 7)
    assert(a.toSeq == Gen.edges(60, 400, seed = 7).toSeq)
    assert(a.toSeq != Gen.edges(60, 400, seed = 8).toSeq)
    assert(a.distinct.length == a.length)
  }

  test("a correct engine passes the gate, DuckDB included") {
    val r = pass(new CrownEngine(cq, tree), duckAt = 4)
    assert(r.errors.isEmpty, r.errors)
    assert(r.deltas > 0 && r.enumResults > 0 && r.failed == 0)
  }

  test("the gate fails when one delta is dropped") {
    val good = pass(new CrownEngine(cq, tree))
    val bad = pass(new DropOne(new CrownEngine(cq, tree), dropAt = good.deltas / 3))
    assert(bad.errors.nonEmpty)
    assert(bad.deltas == good.deltas - 1)
  }
}
