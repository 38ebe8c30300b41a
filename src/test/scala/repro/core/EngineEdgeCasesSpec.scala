package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.baseline.{Hivm, StandardIvm}
import repro.core.Tup.T
import repro.workload.Queries
import scala.collection.mutable

/** Engine edge cases: set semantics, ineffective updates, early-stopped
  * enumeration, construction-time validation, budget aborts — the corners
  * the randomized harness hits only probabilistically. The corners every
  * engine must handle alike run over CROWN and both baselines.
  */
class EngineEdgeCasesSpec extends AnyFunSuite {

  private def mk(cq: CQ): CrownEngine = new CrownEngine(cq, JoinTree.choose(cq).get)
  private val fig2full = Queries.fig2(Vector("x1", "x2", "x3"))

  /** CROWN and both baselines, for the corners every engine must handle alike. */
  private val engines: Seq[CQ => IncrementalEngine] =
    Seq(mk, new StandardIvm(_), new Hivm(_))

  private def forEachEngine(cq: CQ)(body: IncrementalEngine => Unit): Unit =
    for (make <- engines) {
      val e = make(cq)
      withClue(s"${e.name}: ")(body(e))
    }

  test("ineffective updates are ignored (set semantics, §3.1)") {
    forEachEngine(fig2full) { e =>
      assert(e.processUpdate(Upd("R1", Tup(1L, 2L), isInsert = true))(_ => ()) == 0)
      // duplicate insert: no-op, no delta
      assert(e.processUpdate(Upd("R1", Tup(1L, 2L), isInsert = true))(_ => ()) == 0)
      // delete of an absent tuple: no-op
      assert(e.processUpdate(Upd("R2", Tup(9L, 9L), isInsert = false))(_ => ()) == 0)
      assert(e.processUpdate(Upd("R2", Tup(2L, 3L), isInsert = true))(_ => ()) == 1)
      // duplicate insert of a joining tuple still produces no delta
      assert(e.processUpdate(Upd("R2", Tup(2L, 3L), isInsert = true))(_ => ()) == 0)
    }
  }

  test("insert-delete-insert cycles restore exact state") {
    forEachEngine(fig2full) { e =>
      e.processUpdate(Upd("R1", Tup(1L, 2L), isInsert = true))(_ => ())
      e.processUpdate(Upd("R2", Tup(2L, 3L), isInsert = true))(_ => ())
      val s1 = e.fullSet
      val sp1 = e.spaceEntries
      e.processUpdate(Upd("R2", Tup(2L, 3L), isInsert = false))(_ => ())
      assert(e.fullSet.isEmpty)
      e.processUpdate(Upd("R2", Tup(2L, 3L), isInsert = true))(_ => ())
      assert(e.fullSet == s1)
      assert(e.spaceEntries == sp1, "space leaked across a delete/insert cycle")
    }
  }

  test("deleting everything empties every view (no residue)") {
    forEachEngine(Queries.hop3Full(1000)) { e =>
      val edges = Seq(Tup(1L, 2L), Tup(2L, 3L), Tup(3L, 4L), Tup(2L, 2L))
      for (t <- edges; a <- Seq("G1", "G2", "G3"))
        e.processUpdate(Upd(a, t, isInsert = true))(_ => ())
      assert(e.fullSet.nonEmpty)
      for (t <- edges; a <- Seq("G1", "G2", "G3"))
        e.processUpdate(Upd(a, t, isInsert = false))(_ => ())
      assert(e.fullSet.isEmpty)
      assert(e.spaceEntries == 0, s"residual entries: ${e.spaceEntries}")
    }
  }

  test("enumeration stops early when the callback returns false") {
    val e = mk(Queries.hop3Full(1000))
    // a dense bipartite-ish instance with many results
    for (i <- 0L until 8L; j <- 0L until 8L; a <- Seq("G1", "G2", "G3"))
      e.processUpdate(Upd(a, Tup(i, j), isInsert = true))(_ => ())
    var seen = 0
    e.enumerateFull { _ => seen += 1; seen < 5 }
    assert(seen == 5)
  }

  test("unknown relation raises") {
    forEachEngine(fig2full) { e =>
      intercept[IllegalArgumentException] {
        e.processUpdate(Upd("nope", Tup(1L), isInsert = true))(_ => ())
      }
    }
  }

  test("a baseline that exceeds its op budget mid-update refuses further use") {
    for (make <- Seq[CQ => IncrementalEngine](new StandardIvm(_, 1L), new Hivm(_, 1L))) {
      val e = make(fig2full)
      // every R1 tuple joins every R2 tuple on x2 = 2
      val grow = Iterator.from(1).map(i =>
        if (i % 2 == 0) Upd("R2", Tup(2L, i.toLong), isInsert = true)
        else Upd("R1", Tup(i.toLong, 2L), isInsert = true))
      intercept[repro.baseline.BudgetExceeded] {
        grow.take(20).foreach(u => e.processUpdate(u)(_ => ()))
      }
      val upd = intercept[IllegalStateException] {
        e.processUpdate(Upd("R1", Tup(7L, 7L), isInsert = true))(_ => ())
      }
      assert(upd.getMessage.contains(e.name))
      val enumerate = intercept[IllegalStateException](e.enumerateFull(_ => true))
      assert(enumerate.getMessage.contains(e.name))
    }
  }

  test("engine refuses a tree whose root has no output attribute") {
    val cq = Queries.fig2(Vector("x1"))
    val genRoot = JTNode(Vector("x2"), None, Vector(
      JTNode(Vector("x1", "x2"), Some("R1"), Vector.empty),
      JTNode(Vector("x2", "x3"), Some("R2"), Vector.empty)))
    intercept[IllegalArgumentException] {
      new CrownEngine(cq, genRoot)
    }
  }

  test("deltas of one update are disjoint from pre-existing results (Lemma 5.7)") {
    val e = mk(Queries.hop3Full(1000))
    val pre = mutable.Set.empty[T]
    for (t <- Seq(Tup(1L, 2L), Tup(2L, 3L), Tup(3L, 4L)); a <- Seq("G1", "G2", "G3"))
      e.processUpdate(Upd(a, t, isInsert = true))(r => pre += r)
    val before = e.fullSet
    val delta = mutable.Set.empty[T]
    for (a <- Seq("G1", "G2", "G3"))
      e.processUpdate(Upd(a, Tup(4L, 5L), isInsert = true))(r => delta += r)
    assert((delta & before).isEmpty, "insertion delta overlapped old results")
    assert(before ++ delta == e.fullSet)
  }

  test("deletion deltas are exactly the results that disappear") {
    val e = mk(Queries.hop3Full(1000))
    for (t <- Seq(Tup(1L, 2L), Tup(2L, 3L), Tup(3L, 4L), Tup(2L, 2L));
         a <- Seq("G1", "G2", "G3"))
      e.processUpdate(Upd(a, t, isInsert = true))(_ => ())
    val before = e.fullSet
    val delta = mutable.Set.empty[T]
    for (a <- Seq("G1", "G2", "G3"))
      e.processUpdate(Upd(a, Tup(2L, 3L), isInsert = false))(r => delta += r)
    assert(before -- delta == e.fullSet)
    assert(delta.subsetOf(before))
  }

  test("per-atom selections discard updates on ingest (§7.2)") {
    val cq = Queries.hop3Full(1000).copy(
      atomFilters = Map("G3" -> ((t: T) => t(1).asInstanceOf[Long] % 2 == 0)))
    val e = mk(cq)
    for (t <- Seq(Tup(1L, 2L), Tup(2L, 3L), Tup(3L, 4L), Tup(3L, 5L));
         a <- Seq("G1", "G2", "G3"))
      e.processUpdate(Upd(a, t, isInsert = true))(_ => ())
    // only paths ending in an even x4 survive
    assert(e.fullSet == Set(Tup(1L, 2L, 3L, 4L)))
  }

  test("result predicate filters both deltas and full enumeration (SNB Q3 style)") {
    val cq = fig2full.copy(resultFilter = Some(t => t(0) != t(2)))
    val e = mk(cq)
    val got = mutable.Set.empty[T]
    e.processUpdate(Upd("R1", Tup(1L, 2L), isInsert = true))(got += _)
    e.processUpdate(Upd("R2", Tup(2L, 1L), isInsert = true))(got += _) // x1 == x3: filtered
    e.processUpdate(Upd("R2", Tup(2L, 5L), isInsert = true))(got += _)
    assert(got == Set(Tup(1L, 2L, 5L)))
    assert(e.fullSet == Set(Tup(1L, 2L, 5L)))
  }

  test("workOps and spaceEntries are monotone during an insertion-only load") {
    val e = mk(Queries.hop3Full(1000))
    var lastOps = -1L
    for (i <- 0L until 20L; a <- Seq("G1", "G2", "G3")) {
      e.processUpdate(Upd(a, Tup(i, i + 1), isInsert = true))(_ => ())
      assert(e.workOps >= lastOps)
      lastOps = e.workOps
    }
    assert(e.spaceEntries > 0)
  }
}
