package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Tup.T
import repro.workload.Queries
import scala.collection.mutable
import scala.util.Random

/** §7.1 adapters: the output-extension + dedup route for acyclic but
  * non-free-connex queries, and the group-by COUNT(DISTINCT) adapter.
  */
class AdaptersSpec extends AnyFunSuite {

  /** π_{x1,x3}(R1(x1,x2) ⋈ R2(x2,x3)) — the paper's §7.1 example of an
    * acyclic non-free-connex query.
    */
  private val nonFc = Queries.fig2(Vector("x1", "x3"))

  test("compiler detects non-free-connex and wraps a dedup adapter") {
    assert(!Hypergraph.isFreeConnex(nonFc))
    assert(JoinTree.choose(nonFc).isEmpty)
    val eng = Compiler.compile(nonFc)
    assert(eng.isInstanceOf[ProjectionAdapter])
  }

  test("pi_{x1,x3}(R1 join R2) via extension+dedup matches brute force") {
    EngineCheck.checkEngine(nonFc, Map("A" -> Seq("R1"), "B" -> Seq("R2")),
      () => Compiler.compile(nonFc), seedBase = 51, rounds = 4, len = 80)
  }

  test("SNB Q4 shape: group count-distinct adapter maintains exact counts") {
    val cq = Queries.snbQ4Extended(1000).copy(atomFilters = Map("message" ->
      ((t: T) => t(2) == 0L)))
    val copies = Map("tag" -> Seq("tag"), "message_tag" -> Seq("message_tag"),
      "message" -> Seq("message"), "knows" -> Seq("knows"))
    for (round <- 0 until 3) {
      val rnd = new Random(520 + round)
      val inner = Compiler.compile(cq)
      val adapter = new GroupCountDistinctAdapter(inner, cq.output, Vector("nm", "t"), "m")
      val db = mutable.Map.empty[String, mutable.Set[T]]
      cq.atoms.foreach(a => db(a.name) = mutable.Set.empty[T])
      val present = mutable.Map.empty[String, mutable.Set[T]]
      copies.keys.foreach(b => present(b) = mutable.Set.empty[T])
      for (step <- 0 until 80) {
        val base = copies.keys.toVector(rnd.nextInt(copies.size))
        val doInsert = present(base).isEmpty || rnd.nextDouble() < 0.6
        val arity = cq.atomByName(copies(base).head).attrs.size
        val t =
          if (doInsert) Tup(Seq.fill(arity)(rnd.nextInt(4).toLong): _*)
          else present(base).toVector(rnd.nextInt(present(base).size))
        if (doInsert) present(base) += t else present(base) -= t
        for (a <- copies(base)) {
          if (doInsert) db(a) += t else db(a) -= t
          adapter.processUpdate(Upd(a, t, doInsert, step.toLong))(_ => ())
        }
        // expected: distinct m per (nm, t) over the extended results
        val ext = BruteForce.eval(cq, db.view.mapValues(_.toSet).toMap)
        val expected = ext.groupBy(r => Tup(r(0), r(1)))
          .map { case (g, rs) => Tup(g(0), g(1), rs.map(_(2)).size.toLong) }.toSet
        assert(adapter.fullSet == expected,
          s"round=$round step=$step: got=${adapter.fullSet} expected=$expected")
      }
    }
  }

  test("count-distinct adapter emits each changed group's new count, 0 when it empties") {
    val cq = Queries.fig2(Vector("x1", "x2", "x3"))
    val adapter = new GroupCountDistinctAdapter(Compiler.compile(cq), cq.output, Vector("x1"), "x2")
    def upd(rel: String, a: Long, b: Long, ins: Boolean): Seq[T] = {
      val out = mutable.ArrayBuffer.empty[T]
      adapter.processUpdate(Upd(rel, Tup(a, b), ins))(out += _)
      out.toSeq
    }
    assert(upd("R1", 1, 2, ins = true) == Seq())
    assert(upd("R2", 2, 3, ins = true) == Seq(Tup(1L, 1L)))  // x2 = 2 joins
    assert(upd("R2", 2, 4, ins = true) == Seq())             // x2 = 2 again
    assert(upd("R1", 1, 5, ins = true) == Seq())
    assert(upd("R2", 5, 6, ins = true) == Seq(Tup(1L, 2L)))  // x2 = 5 joins
    assert(upd("R1", 1, 2, ins = false) == Seq(Tup(1L, 1L))) // no retraction of (1, 2)
    assert(upd("R1", 1, 5, ins = false) == Seq(Tup(1L, 0L))) // the group empties
    assert(adapter.fullSet.isEmpty)
  }

  test("freeConnexExtension finds the minimal extension") {
    val ext = Hypergraph.freeConnexExtension(nonFc)
    assert(ext.isDefined)
    assert(ext.get.toSet == Set("x1", "x2", "x3")) // x2 must be added
  }
}
