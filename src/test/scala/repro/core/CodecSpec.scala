package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.baseline.{ChainEngine, Hivm, StandardIvm}
import repro.core.Tup.T
import repro.workload.Queries
import scala.collection.mutable

/** The value dictionary ([[Dict]]) alone and inside [[CrownEngine]] and the
  * two chain-of-views baselines: values round-trip to the caller's own
  * objects, integral types share ids, unsupported types are refused by
  * relation, freed ids are reused and no entry outlives the base tuples that
  * retain it.
  */
class CodecSpec extends AnyFunSuite {

  private val fig2full = Queries.fig2(Vector("x1", "x2", "x3"))

  private def forEachBaseline(cq: CQ)(body: ChainEngine => Unit): Unit =
    for (e <- Seq(new StandardIvm(cq), new Hivm(cq))) withClue(s"${e.name}: ")(body(e))

  test("Long, Int, String and null values round-trip to the objects they came from") {
    val d = new Dict
    val vals: Seq[Any] = Seq(java.lang.Long.valueOf(1000L), Integer.valueOf(7), new String("ab"), null)
    val ids = vals.map(d.acquire(_, "R"))
    assert(ids.distinct.size == 4)
    for ((v, id) <- vals.zip(ids)) {
      assert(d.lookup(v, "R") == id)
      assert(d.decode(id).asInstanceOf[AnyRef] eq v.asInstanceOf[AnyRef])
    }
  }

  test("emitted results hold the caller's objects, strings and nulls included") {
    val e = new CrownEngine(fig2full, JoinTree.choose(fig2full).get)
    val a = new String("a")
    val b = java.lang.Long.valueOf(5000L)
    val c: Any = null
    val got = mutable.ArrayBuffer.empty[T]
    e.processUpdate(Upd("R1", Tup(a, b), isInsert = true))(got += _)
    // an equal but distinct object: the value keeps the object it first came with
    e.processUpdate(Upd("R2", Tup(java.lang.Long.valueOf(5000L), c), isInsert = true))(got += _)
    assert(got.size == 1)
    val r = got.head
    assert(r == Tup("a", 5000L, null))
    assert(r(0).asInstanceOf[AnyRef] eq a)
    assert(r(1).asInstanceOf[AnyRef] eq b)
    assert(r(2) == null)
    assert(e.fullSet == Set(r))
  }

  test("Int 1 and Long 1 are one value") {
    val d = new Dict
    val id = d.acquire(1, "R")
    assert(d.acquire(1L, "R") == id)
    assert(d.lookup(1.toShort, "R") == id && d.lookup(1.toByte, "R") == id)
    // in the engine: an Int tuple joins and deletes as its Long twin
    val e = new CrownEngine(fig2full, JoinTree.choose(fig2full).get)
    e.processUpdate(Upd("R1", Tup(1, 2), isInsert = true))(_ => ())
    assert(e.processUpdate(Upd("R2", Tup(2L, 3L), isInsert = true))(_ => ()) == 1)
    assert(e.processUpdate(Upd("R1", Tup(1L, 2L), isInsert = true))(_ => ()) == 0)
    assert(e.processUpdate(Upd("R1", Tup(1L, 2L), isInsert = false))(_ => ()) == 1)
    assert(e.fullSet.isEmpty)
  }

  test("a Double is rejected with the relation named") {
    val e = new CrownEngine(fig2full, JoinTree.choose(fig2full).get)
    for (ins <- Seq(true, false)) {
      val err = intercept[IllegalArgumentException] {
        e.processUpdate(Upd("R2", Tup(2L, 1.5), isInsert = ins))(_ => ())
      }
      assert(err.getMessage.contains("R2") && err.getMessage.contains("1.5"), err.getMessage)
    }
    assert(e.dictEntries == 0, "a refused update left dictionary entries")
  }

  test("ids are reused after release") {
    val d = new Dict
    val a = d.acquire(10L, "R")
    val b = d.acquire("x", "R")
    d.retain(a)
    d.release(a)
    assert(d.lookup(10L, "R") == a, "an id with references left was freed")
    d.release(a)
    assert(d.lookup(10L, "R") == -1)
    assert(d.entries == 1)
    val c = d.acquire(11L, "R")
    assert(c == a, "a freed id was not reused")
    assert(d.decode(c) == 11L && d.decode(b) == "x")
  }

  test("a 3-ary entry is freed when its last base tuple leaves") {
    val d = new Dict
    val ids = Array(d.acquire(1L, "R"), d.acquire(2L, "R"), d.acquire(3L, "R"))
    val w = d.wideAcquire(ids)
    assert(d.wideAcquire(ids.clone()) == w)
    assert(d.wideIds(w).sameElements(ids))
    d.release(w)
    assert(d.wideLookup(ids) == w)
    d.release(w)
    assert(d.wideLookup(ids) == -1)

    // in the engine: R(a,b,c,d) ⋈ S(a,b,c,e) keys S by the wide (a,b,c)
    val cq = CQ("wide", Vector(Atom("R", Vector("a", "b", "c", "d")),
      Atom("S", Vector("a", "b", "c", "e"))), Vector("a", "b", "c", "d", "e"))
    val e = new CrownEngine(cq, JoinTree.choose(cq).get)
    val live = mutable.LinkedHashSet.empty[Upd]
    def fresh(): Long = {
      val f = new CrownEngine(cq, JoinTree.choose(cq).get)
      live.foreach(u => f.processUpdate(u)(_ => ()))
      f.dictEntries
    }
    val ups = Seq(Upd("R", Tup(1L, 2L, 3L, 4L), true), Upd("S", Tup(1L, 2L, 3L, 5L), true),
      Upd("S", Tup(1L, 2L, 3L, 6L), true), Upd("R", Tup(1L, 2L, 9L, 4L), true))
    for (u <- ups) { e.processUpdate(u)(_ => ()); live += u }
    assert(e.fullSet.size == 2)
    for (u <- ups) {
      e.processUpdate(u.copy(isInsert = false))(_ => ())
      live -= u
      assert(e.dictEntries == fresh(), s"after deleting ${u.t}")
    }
    assert(e.dictEntries == 0)
  }

  test("baselines: emitted results hold the caller's objects, strings and nulls included") {
    forEachBaseline(fig2full) { e =>
      val a = new String("a")
      val b = java.lang.Long.valueOf(5000L)
      val got = mutable.ArrayBuffer.empty[T]
      e.processUpdate(Upd("R1", Tup(a, b), isInsert = true))(got += _)
      e.processUpdate(Upd("R2", Tup(java.lang.Long.valueOf(5000L), null), isInsert = true))(got += _)
      assert(got.size == 1)
      val r = got.head
      assert(r == Tup("a", 5000L, null))
      assert(r(0).asInstanceOf[AnyRef] eq a)
      assert(r(1).asInstanceOf[AnyRef] eq b)
      assert(r(2) == null)
      assert(e.fullSet == Set(r))
      // a deleted result is decoded from the values it was given with
      got.clear()
      e.processUpdate(Upd("R1", Tup("a", 5000L), isInsert = false))(got += _)
      assert(got.size == 1 && (got.head(0).asInstanceOf[AnyRef] eq a))
    }
  }

  test("baselines: Int 1 and Long 1 are one value") {
    forEachBaseline(fig2full) { e =>
      e.processUpdate(Upd("R1", Tup(1, 2), isInsert = true))(_ => ())
      assert(e.processUpdate(Upd("R2", Tup(2L, 3L), isInsert = true))(_ => ()) == 1)
      assert(e.processUpdate(Upd("R1", Tup(1L, 2L), isInsert = true))(_ => ()) == 0)
      assert(e.processUpdate(Upd("R1", Tup(1L, 2L), isInsert = false))(_ => ()) == 1)
      assert(e.fullSet.isEmpty)
    }
  }

  test("baselines: a Double is rejected with the relation named and no state changed") {
    forEachBaseline(fig2full) { e =>
      e.processUpdate(Upd("R1", Tup(1L, 2L), isInsert = true))(_ => ())
      e.processUpdate(Upd("R2", Tup(2L, 3L), isInsert = true))(_ => ())
      val (full, space, dict, ops) = (e.fullSet, e.spaceEntries, e.dictEntries, e.workOps)
      for (ins <- Seq(true, false); t <- Seq(Tup(2L, 1.5), Tup(2L, 1.5f))) {
        val err = intercept[IllegalArgumentException] {
          e.processUpdate(Upd("R2", t, isInsert = ins))(_ => ())
        }
        assert(err.getMessage.contains("R2") && err.getMessage.contains("1.5"), err.getMessage)
      }
      assert(e.fullSet == full && e.spaceEntries == space && e.dictEntries == dict && e.workOps == ops)
    }
  }

  test("a refused update leaves no dictionary entries, in every engine") {
    val cq = fig2full.copy(atomFilters = Map("R1" -> ((t: T) => t(0) == 0L)))
    val engines = Seq(new CrownEngine(cq, JoinTree.choose(cq).get), new StandardIvm(cq), new Hivm(cq))
    val refused = Seq(Upd("nope", Tup(1L, 2L), true), Upd("R1", Tup(1L, 2L, 3L), true),
      Upd("R1", Tup(7L, "x"), true), Upd("R2", Tup("y", 2.5), true))
    for (e <- engines; u <- refused; ins <- Seq(true, false)) {
      try e.processUpdate(u.copy(isInsert = ins))(_ => ()) catch { case _: IllegalArgumentException => }
      // an ineffective delete of values never seen only looks them up
      e.processUpdate(Upd("R2", Tup("z", null), isInsert = false))(_ => ())
      assert(EngineCheck.dictEntries(e) == 0, s"${e.name} kept entries after refusing $u")
      assert(e.spaceEntries == 0, s"${e.name} kept tuples after refusing $u")
    }
  }

  test("baselines: a 3-ary tuple is freed when the last entry holding it leaves") {
    // R(a,b,c,d) ⋈ S(a,b,c,e): wide base tuples, join keys and results
    val cq = CQ("wide", Vector(Atom("R", Vector("a", "b", "c", "d")),
      Atom("S", Vector("a", "b", "c", "e"))), Vector("a", "b", "c", "d", "e"))
    for (mk <- Seq[CQ => ChainEngine](new StandardIvm(_), new Hivm(_))) {
      val e = mk(cq)
      val live = mutable.LinkedHashSet.empty[Upd]
      def fresh(): Long = {
        val f = mk(cq)
        live.foreach(u => f.processUpdate(u)(_ => ()))
        f.dictEntries
      }
      val ups = Seq(Upd("R", Tup(1L, 2L, 3L, 4L), true), Upd("S", Tup(1L, 2L, 3L, 5L), true),
        Upd("S", Tup(1L, 2L, 3L, 6L), true), Upd("R", Tup(1L, 2L, 9L, 4L), true))
      for (u <- ups) { e.processUpdate(u)(_ => ()); live += u }
      assert(e.fullSet == Set(Tup(1L, 2L, 3L, 4L, 5L), Tup(1L, 2L, 3L, 4L, 6L)), e.name)
      for (u <- ups) {
        e.processUpdate(u.copy(isInsert = false))(_ => ())
        live -= u
        assert(e.dictEntries == fresh(), s"${e.name} after deleting ${u.t}")
      }
      assert(e.dictEntries == 0, e.name)
    }
  }
}
