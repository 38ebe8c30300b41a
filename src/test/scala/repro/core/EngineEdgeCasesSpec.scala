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
      assert(EngineCheck.dictEntries(e) == 0, s"residual dictionary entries: ${EngineCheck.dictEntries(e)}")
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

  test("a tuple of the wrong arity raises and changes nothing") {
    def wrongArity(run: Upd => Unit, rel: String, arity: Int, t: T): Unit =
      for (ins <- Seq(true, false)) {
        val err = intercept[IllegalArgumentException](run(Upd(rel, t, ins)))
        assert(err.getMessage.contains(s"relation $rel has arity $arity") &&
          err.getMessage.contains(s"tuple of arity ${t.length}"), err.getMessage)
      }
    forEachEngine(fig2full) { e =>
      e.processUpdate(Upd("R1", Tup(1L, 2L), isInsert = true))(_ => ())
      e.processUpdate(Upd("R2", Tup(2L, 3L), isInsert = true))(_ => ())
      val (full, space) = (e.fullSet, e.spaceEntries)
      for (t <- Seq(Tup(2L, 3L, 99L), Tup(2L)))
        wrongArity(u => e.processUpdate(u)(_ => ()), "R2", 2, t)
      assert(e.fullSet == full)
      assert(e.spaceEntries == space)
    }
    // the GHD engine's triangle roles and ring-annotated CROWN check too
    val bag = new repro.ghd.BagEngine(Queries.dumbbellFull(1000).output)
    for ((rel, t) <- Seq("G1" -> Tup(1L, 2L, 3L), "G1" -> Tup(1L), "G4" -> Tup(1L)))
      wrongArity(u => bag.processUpdate(u)(_ => ()), rel, 2, t)
    assert(bag.spaceEntries == 0)
    val annotated = new AnnotatedCrown[Long](fig2full, JoinTree.choose(fig2full).get, (_, _) => 1L)
    wrongArity(annotated.update, "R1", 2, Tup(1L, 2L, 3L))
    wrongArity(annotated.update, "R1", 2, Tup(1L))
    assert(annotated.results().isEmpty)
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

  test("engine refuses valid join trees that are not enumerable") {
    // R1(R2) with output (x1,x3): the key x2 into output-bearing R2 is not output
    val keyNotOutput = CQ("keyNotOutput", Vector(Atom("R1", Vector("x1", "x2")),
      Atom("R2", Vector("x2", "x3"))), Vector("x1", "x3"))
    val t1 = JTNode(Vector("x1", "x2"), Some("R1"), Vector(
      JTNode(Vector("x2", "x3"), Some("R2"), Vector.empty)))
    // R1(R2(R3)) with output (x1,x4): R2 adds output below it but carries none
    val noOutputChild = CQ("noOutputChild", Vector(Atom("R1", Vector("x1", "x2")),
      Atom("R2", Vector("x2", "x3")), Atom("R3", Vector("x3", "x4"))), Vector("x1", "x4"))
    val t2 = JTNode(Vector("x1", "x2"), Some("R1"), Vector(
      JTNode(Vector("x2", "x3"), Some("R2"), Vector(
        JTNode(Vector("x3", "x4"), Some("R3"), Vector.empty)))))
    for ((cq, tree, msg) <- Seq((keyNotOutput, t1, "not all-output"),
                                (noOutputChild, t2, "carries no output attribute"))) {
      assert(JoinTree.validate(cq, tree) == Right(()))
      val err = intercept[IllegalArgumentException](new CrownEngine(cq, tree))
      assert(err.getMessage.contains(msg), err.getMessage)
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

  test("a result the predicate drops still makes its projections live (SNB Q3)") {
    val cq = Queries.snbQ3(1000)
    forEachEngine(cq) { e =>
      for (u <- Seq(Upd("knows1", Tup(71L, 17L), true), Upd("knows2", Tup(17L, 71L), true),
                    Upd("message", Tup(1888L, 71L, null), true), Upd("message_tag", Tup(1888L, 0L), true),
                    Upd("tag", Tup(0L, "t0"), true)))
        e.processUpdate(u)(_ => ()) // the one result has a == c: dropped
      assert(e.fullSet.isEmpty)
      // knows2 (17, 71) joins only through the dropped result so far
      val got = mutable.Set.empty[T]
      e.processUpdate(Upd("knows1", Tup(0L, 17L), isInsert = true))(got += _)
      assert(got == Set(Tup(0L, 17L, 71L, 0L, 1888L)))
      assert(e.fullSet == got)
      got.clear()
      e.processUpdate(Upd("knows1", Tup(0L, 17L), isInsert = false))(got += _)
      assert(got == Set(Tup(0L, 17L, 71L, 0L, 1888L)))
    }
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
