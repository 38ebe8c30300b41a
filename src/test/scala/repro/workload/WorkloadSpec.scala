package repro.workload

import repro.SparkSpec
import repro.core.Tup.T
import repro.stream.Updates

/** Workload generators: determinism (the oracle must see identical data),
  * scale behaviour, and stream-shape properties.
  */
class WorkloadSpec extends SparkSpec {

  test("graph generator is deterministic and heavy-tailed") {
    val e1 = GraphData.edgesLocal(spark, 500, 3000, seed = 42)
    val e2 = GraphData.edgesLocal(spark, 500, 3000, seed = 42)
    assert(e1 == e2, "same seed must give identical edges")
    assert(e1.size > 2000)
    assert(e1.distinct.size == e1.size, "edges must be distinct")
    val outDeg = e1.groupBy(_(0)).view.mapValues(_.size).values.toVector.sorted
    assert(outDeg.last >= 5 * math.max(1, outDeg(outDeg.size / 2)),
      s"expected a heavy tail, max=${outDeg.last} median=${outDeg(outDeg.size / 2)}")
  }

  test("SNB-lite is deterministic, referentially consistent, and scales") {
    val r1 = SnbData.localRows(spark, 0.1)
    val r2 = SnbData.localRows(spark, 0.1)
    assert(r1 == r2)
    val byRel = r1.groupBy(_._1).view.mapValues(_.map(_._2)).toMap
    val persons = byRel("person").map(_(0)).toSet
    val messages = byRel("message")
    assert(messages.forall(m => persons.contains(m(1))), "message creators exist")
    assert(byRel("knows").forall(k => persons.contains(k(0)) && persons.contains(k(1))))
    val tags = byRel("tag").map(_(0)).toSet
    assert(byRel("message_tag").forall(mt => tags.contains(mt(1))), "mt tags exist")
    assert(messages.exists(_(2) == null) && messages.exists(_(2) != null),
      "reply-of must be mixed null/non-null for the IS NULL filter to matter")
    val big = SnbData.localRows(spark, 0.4)
    assert(big.size > 2 * r1.size)
  }

  test("fifoWindow produces a FIFO sequence with a fixed-size window") {
    val tuples = (0 until 50).map(i => repro.core.Tup(i.toLong, (i + 1).toLong))
    val us = Updates.fifoWindow("G", tuples, w = 10)
    assert(us.size == 100)
    // FIFO: deletions occur in insertion order
    val insOrder = us.filter(_.isInsert).map(_.t)
    val delOrder = us.filterNot(_.isInsert).map(_.t)
    assert(insOrder == delOrder)
    // window bound: at any prefix, |inserted| - |deleted| <= w
    var live = 0
    for (u <- us) {
      live += (if (u.isInsert) 1 else -1)
      assert(live <= 10)
    }
  }

  test("fifoWindow emits the time-sorted sequence of its inserts and deletes") {
    for ((n, w) <- Seq((0, 1), (1, 1), (50, 10), (7, 3), (5, 5), (4, 9), (30, 1))) {
      val tuples = (0 until n).map(i => repro.core.Tup(i.toLong, (i + 1).toLong))
      val sorted = tuples.zipWithIndex.flatMap { case (t, i) =>
        Seq(repro.core.Upd("G", t, isInsert = true, ts = 2L * i),
            repro.core.Upd("G", t, isInsert = false, ts = 2L * (i + w) - 1))
      }.sortBy(_.ts).toVector
      assert(Updates.fifoWindow("G", tuples, w) == sorted, s"n=$n w=$w")
    }
    intercept[IllegalArgumentException](Updates.fifoWindow("G", Seq(repro.core.Tup(1L)), 0))
  }

  test("expandSelfJoin replicates base updates to every atom copy in order") {
    val us = Vector(repro.core.Upd("G", repro.core.Tup(1L, 2L), isInsert = true, 0))
    val ex = Updates.expandSelfJoin(us, Map("G" -> Seq("G1", "G2", "G3")))
    assert(ex.map(_.rel) == Vector("G1", "G2", "G3"))
    assert(ex.forall(_.t == repro.core.Tup(1L, 2L)))
  }

  test("reference SQL names every output column") {
    for (cq <- Seq(Queries.hop3Full(100), Queries.hop4Proj(100), Queries.star3(100),
      Queries.comb2(100), Queries.snbQ1, Queries.snbQ2(100)))
      for (v <- cq.output)
        assert(cq.referenceSql.contains(s"AS $v"), s"${cq.name}: missing alias $v")
  }

  test("filterAtom keeps roughly the requested fraction") {
    val vals = (0L until 4000L).map(v => repro.core.Tup(0L, v))
    val kept = vals.count(Queries.filterAtom(1, 100))
    assert(kept > 250 && kept < 550, s"10% filter kept $kept of 4000")
  }
}
