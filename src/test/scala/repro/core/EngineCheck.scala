package repro.core

import org.scalatest.Assertions._
import repro.core.Tup.T
import scala.collection.mutable
import scala.util.Random

/** Shared randomized-equivalence harness: drives any [[IncrementalEngine]]
  * with random mixed insert/delete sequences (self-join expanded) and checks
  * after every base update that the emitted delta equals the from-scratch
  * `ΔQ(D,t)` and (periodically) that full enumeration equals `Q(D)` and the
  * engine holds as many entries, and as many dictionary entries, as one
  * built by inserting the current `D`.
  */
object EngineCheck {

  /** Dictionary entries of an engine that encodes its tuples, else 0. */
  def dictEntries(e: IncrementalEngine): Long = e match {
    case c: CrownEngine => c.dictEntries
    case p: ProjectionAdapter => dictEntries(p.inner)
    case g: GroupCountDistinctAdapter => dictEntries(g.inner)
    case b: repro.ghd.BagEngine => b.dictEntries
    case c: repro.baseline.ChainEngine => c.dictEntries
    case _ => 0L
  }

  /** Feed `updates`, a stream that ends with every tuple deleted, to all
    * `engines`: each must emit the same delta as the first after every
    * update and hold the same full result every `fullEvery` updates; once
    * the stream has drained, none may hold a result or a dictionary entry.
    * Returns the number of deltas.
    */
  def agreeOnStream(engines: Seq[IncrementalEngine], updates: Seq[Upd], fullEvery: Int = 500): Long = {
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
      if (i % fullEvery == fullEvery - 1) {
        val full = engines.map(_.fullSet)
        for ((e, f) <- engines.zip(full).tail)
          assert(f == full.head, s"${e.name} vs ${engines.head.name} full result after update $i: " +
            s"extra=${f -- full.head} missing=${full.head -- f}")
      }
    }
    assert(deltas > 100, s"the stream produced only $deltas deltas")
    assert(engines.forall(_.fullSet.isEmpty), "the drained stream left results")
    for (e <- engines)
      assert(dictEntries(e) == 0, s"${e.name} kept dictionary entries after the stream drained")
    deltas
  }

  def snapshot(db: mutable.Map[String, mutable.Set[T]]): Map[String, Set[T]] =
    db.view.mapValues(_.toSet).toMap

  def checkEngine(cq: CQ, copies: Map[String, Seq[String]],
                  mkEngine: () => IncrementalEngine,
                  seedBase: Int, rounds: Int = 4, len: Int = 60, nV: Int = 5,
                  fullEvery: Int = 7): Unit = {
    for (round <- 0 until rounds) {
      val rnd = new Random(seedBase * 1000 + round)
      val engine = mkEngine()
      val db = mutable.Map.empty[String, mutable.Set[T]]
      for (a <- cq.atoms) db(a.name) = mutable.Set.empty[T]
      val present = mutable.Map.empty[String, mutable.Set[T]]
      copies.keys.foreach(b => present(b) = mutable.Set.empty[T])

      def randomTuple(base: String): T = {
        val arity = cq.atomByName(copies(base).head).attrs.size
        Tup(Seq.fill(arity)(rnd.nextInt(nV).toLong): _*)
      }

      for (step <- 0 until len) {
        val base = copies.keys.toVector(rnd.nextInt(copies.size))
        val doInsert = present(base).isEmpty || rnd.nextDouble() < 0.6
        val t =
          if (doInsert) randomTuple(base)
          else present(base).toVector(rnd.nextInt(present(base).size))
        if (doInsert) present(base) += t else present(base) -= t

        val atomUpds = copies(base).map(a => Upd(a, t, doInsert, step.toLong))
        val before = snapshot(db)
        for (au <- atomUpds)
          if (doInsert) db(au.rel) += au.t else db(au.rel) -= au.t
        val after = snapshot(db)
        val expected = BruteForce.delta(cq, before, after, doInsert)
        val got = mutable.Set.empty[T]
        var emitted = 0
        for (au <- atomUpds)
          engine.processUpdate(au) { r => got += r; emitted += 1 }
        withClue(s"${cq.name}/${engine.name} round=$round step=$step ins=$doInsert t=$t: ") {
          assert(got == expected,
            s"delta mismatch: extra=${got -- expected} missing=${expected -- got}")
          assert(emitted == got.size, "duplicate delta emissions")
        }
        if (step % fullEvery == 0 || step == len - 1) {
          val full = engine.fullSet
          val exp = BruteForce.eval(cq, after)
          withClue(s"${cq.name}/${engine.name} round=$round step=$step FULL: ") {
            assert(full == exp,
              s"full mismatch: missing=${exp -- full} extra=${full -- exp}")
            val fresh = mkEngine()
            for ((rel, ts) <- after; t <- ts)
              fresh.processUpdate(Upd(rel, t, isInsert = true))(_ => ())
            assert(engine.spaceEntries == fresh.spaceEntries,
              "state differs from an engine built from the surviving tuples")
            assert(dictEntries(engine) == dictEntries(fresh),
              "dictionary differs from that of an engine built from the surviving tuples")
          }
        }
      }
    }
  }
}
