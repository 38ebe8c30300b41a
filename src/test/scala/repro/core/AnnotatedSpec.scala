package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Tup.T
import scala.collection.mutable
import scala.util.Random

/** §7.3 ring aggregations: the annotated engine against group-by aggregates
  * computed from brute-force join results, under random insert/delete churn.
  */
class AnnotatedSpec extends AnyFunSuite {

  private def fullJoin(cq: CQ): CQ = cq.withOutput(cq.allVars)

  /** Random-churn harness comparing `AnnotatedCrown.results()` with the
    * brute-force group-by aggregate after every update.
    */
  private def check[A: Ring](cq: CQ, seed: Int, annot: (String, T) => A,
                             agg: Set[T] => Map[T, A], len: Int = 80, nV: Int = 4): Unit = {
    val tree = JoinTree.choose(cq).getOrElse(fail(s"no tree for ${cq.name}"))
    for (round <- 0 until 3) {
      val rnd = new Random(seed * 100 + round)
      val eng = new AnnotatedCrown[A](cq, tree, annot)
      val db = mutable.Map.empty[String, mutable.Set[T]]
      cq.atoms.foreach(a => db(a.name) = mutable.Set.empty[T])
      for (step <- 0 until len) {
        val a = cq.atoms(rnd.nextInt(cq.atoms.size))
        val doInsert = db(a.name).isEmpty || rnd.nextDouble() < 0.6
        val t =
          if (doInsert) Tup(Seq.fill(a.attrs.size)(rnd.nextInt(nV).toLong): _*)
          else db(a.name).toVector(rnd.nextInt(db(a.name).size))
        if (doInsert) db(a.name) += t else db(a.name) -= t
        eng.update(Upd(a.name, t, doInsert, step.toLong))
        val fullResults = BruteForce.eval(fullJoin(cq), db.view.mapValues(_.toSet).toMap)
        val expected = agg(fullResults)
        assert(eng.results() == expected,
          s"${cq.name} round=$round step=$step: got=${eng.results()} expected=$expected")
      }
    }
  }

  private val chain2 = repro.workload.Queries.fig2(Vector("x1")) // π_x1 R1 ⋈ R2

  test("COUNT(*) GROUP BY x1 over R1(x1,x2) ⋈ R2(x2,x3)") {
    check[Long](chain2, seed = 61, annot = (_, _) => 1L,
      agg = rs => rs.groupBy(r => Tup(r(0)))
        .map { case (g, v) => g -> v.size.toLong })
  }

  test("SUM(x3) GROUP BY x1 over R1(x1,x2) ⋈ R2(x2,x3)") {
    check[Long](chain2, seed = 62,
      annot = (rel, t) => if (rel == "R2") t(1).asInstanceOf[Long] else 1L,
      agg = rs => rs.groupBy(r => Tup(r(0)))
        .map { case (g, v) => g -> v.toSeq.map(_(2).asInstanceOf[Long]).sum }
        .filter(_._2 != 0L))
  }

  test("COUNT with a two-level aggregated-away subtree (3-chain)") {
    val cq = CQ("chain3", Vector(Atom("R1", Vector("x1", "x2")),
      Atom("R2", Vector("x2", "x3")), Atom("R3", Vector("x3", "x4"))), Vector("x1"))
    check[Long](cq, seed = 63, annot = (_, _) => 1L,
      agg = rs => rs.groupBy(r => Tup(r(0))).map { case (g, v) => g -> v.size.toLong },
      len = 70)
  }

  test("COUNT grouped by two output attrs (star, partially aggregated)") {
    val cq = CQ("starAgg", Vector(Atom("G1", Vector("x0", "x1")),
      Atom("G2", Vector("x0", "x2")), Atom("G3", Vector("x0", "x3"))),
      Vector("x0", "x1"))
    check[Long](cq, seed = 64, annot = (_, _) => 1L,
      agg = rs => rs.groupBy(r => Tup(r(0), r(1)))
        .map { case (g, v) => g -> v.size.toLong })
  }

  test("SUM over doubles survives churn (ring with additive inverses)") {
    check[Double](chain2, seed = 65,
      annot = (rel, t) => if (rel == "R2") t(1).asInstanceOf[Long].toDouble + 0.5 else 1.0,
      agg = rs => rs.groupBy(r => Tup(r(0)))
        .map { case (g, v) => g -> v.toSeq.map(_(2).asInstanceOf[Long].toDouble + 0.5).sum }
        .filter(_._2 != 0.0))
  }

  test("unknown relation raises an argument error, as in CrownEngine") {
    val eng = new AnnotatedCrown[Long](chain2, JoinTree.choose(chain2).get, (_, _) => 1L)
    val err = intercept[IllegalArgumentException](eng.update(Upd("R9", Tup(1L, 2L), isInsert = true)))
    assert(err.getMessage.contains("unknown relation R9"))
  }
}
