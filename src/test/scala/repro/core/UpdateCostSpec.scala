package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.baseline.StandardIvm
import repro.ghd.BagEngine
import repro.stream.Updates
import repro.workload.Queries
import scala.util.Random

/** Quantitative claims of §4/§6/§7: linear space (Lemma 4.1), O(1) amortized
  * update cost where the theory promises it (Lemmas 6.8–6.10, Example 6.12),
  * and the O(N^1.5) dumbbell space bound (Lemma 7.2). Work is measured by
  * the engines' abstract counter, so the assertions are stable across
  * machines; bounds are generous to avoid flakiness.
  */
class UpdateCostSpec extends AnyFunSuite {

  private def randomEdges(n: Int, dom: Int, seed: Int): Vector[Tup.T] = {
    val rnd = new Random(seed)
    Iterator.continually(Tup(rnd.nextInt(dom).toLong, rnd.nextInt(dom).toLong))
      .distinct.take(n).toVector
  }

  test("the work counter counts R-, S- and P-Update steps, S-Updates on insertions only") {
    // tree [x2](R1, R2): a generated root over two leaves
    val cq = Queries.fig2(Vector("x1", "x2", "x3"))
    val eng = new CrownEngine(cq, JoinTree.choose(cq).get)
    def upd(rel: String, a: Long, b: Long, ins: Boolean): (Long, Long) = {
      val n = eng.processUpdate(Upd(rel, Tup(a, b), ins))(_ => ())
      (eng.workOps, n)
    }
    // (workOps after the update, deltas)
    assert(upd("R1", 1, 2, ins = true) == (2, 0))  // S + P
    assert(upd("R2", 2, 3, ins = true) == (5, 1))  // S + P + the root's S
    assert(upd("R2", 2, 4, ins = true) == (6, 1))  // S; key 2 already in V_p(R2)
    assert(upd("R1", 5, 2, ins = true) == (7, 2))
    assert(upd("R1", 1, 2, ins = false) == (7, 2)) // key 2 stays in V_p(R1)
    assert(upd("R2", 2, 3, ins = false) == (7, 1))
    assert(upd("R1", 5, 2, ins = false) == (8, 1)) // P; the root's tuple leaves V_s
    assert(upd("R2", 2, 4, ins = false) == (9, 0)) // P
    assert(eng.fullSet.isEmpty)
  }

  test("Lemma 4.1: CROWN space stays linear in the input") {
    val cq = Queries.hop3Full(1000)
    val tree = JoinTree.choose(cq).get
    def spaceFor(m: Int): Long = {
      val eng = new CrownEngine(cq, tree)
      for (e <- randomEdges(m, 6 * m / 10, 1); a <- Seq("G1", "G2", "G3"))
        eng.processUpdate(Upd(a, e, isInsert = true))(_ => ())
      eng.spaceEntries
    }
    val s500 = spaceFor(500)
    val s1000 = spaceFor(1000)
    assert(s1000 <= 60L * 3 * 1000, s"space $s1000 not linear-ish")
    assert(s1000.toDouble / s500 < 3.0, s"space grew superlinearly: $s500 -> $s1000")
  }

  test("Lemma 4.1, exactly: only enumerated children hold an enumeration index") {
    // tree [x2](G1, G2(G3)); edge e goes into G1, G2 and G3, then space is
    // read; then the edges leave in reverse order, and space retraces
    val edges = Seq(Tup(1L, 2L), Tup(2L, 3L), Tup(3L, 4L), Tup(5L, 2L))
    def spaces(cq: CQ): Seq[Long] = {
      val eng = new CrownEngine(cq, JoinTree.choose(cq).get)
      def load(es: Seq[Tup.T], ins: Boolean): Seq[Long] = for (e <- es) yield {
        for (a <- Seq("G1", "G2", "G3")) eng.processUpdate(Upd(a, e, ins))(_ => ())
        eng.spaceEntries
      }
      load(edges, ins = true) ++ load(edges.reverse, ins = false)
    }
    // hop3Proj (y = x2, x3): only G2 adds an output attribute to its parent,
    // so only G2 holds an index. Each view is held once: G2 is all-output, so
    // its π_y V_s is V_s, and G1's and G3's output attribute is their key, so
    // theirs is V_p; only the root counts its projections. G2's live view is
    // held only in its index under G3. Space after each edge, as node tuples
    // (the root's generated ones too) + V_p + the root's projections + G2's
    // index + G2's index of G3 + live indexes (the root's under G1 and G2,
    // G2's under G3):
    //   (1,2):  4 +  2 + 0 + 0 + 1 + 0 = 7
    //   (2,3):  9 +  5 + 0 + 1 + 2 + 0 = 17   G2's (1,2) joins G3's (2,3)
    //   (3,4): 13 +  8 + 1 + 2 + 3 + 3 = 30   root x2 = 2 yields (2,3)
    //   (5,2): 17 + 10 + 1 + 3 + 4 + 3 = 38   G2's (5,2) joins no root x2
    assert(spaces(Queries.hop3Proj(1000)) == Seq(7, 17, 30, 38, 30, 17, 7, 0))
    // hop3Full: G1 and G3 are indexed too, one entry per V_s tuple: 2, 4, 6,
    // 8 more entries. All three are all-output, so none counts projections.
    //   7 + 2 = 9, 17 + 4 = 21, 30 + 6 = 36, 38 + 8 = 46
    assert(spaces(Queries.hop3Full(1000)) == Seq(9, 21, 36, 46, 36, 21, 9, 0))
  }

  test("Example 6.12: CROWN O(1) vs standard CP's polynomial update cost") {
    // distinct relations R1..R4 (no self-join), hop4-intro output
    def load(n: Int): (Double, Double) = {
      val cq = Queries.hop4Intro(1000)
      val crown = new CrownEngine(cq, JoinTree.choose(cq).get)
      val ivm = new StandardIvm(cq)
      val grid = for (i <- 0 until n; j <- 0 until n)
        yield Tup(i.toLong, j.toLong)
      for (a <- Seq("G2", "G3", "G4"); t <- grid) {
        crown.processUpdate(Upd(a, t, isInsert = true))(_ => ())
        ivm.processUpdate(Upd(a, t, isInsert = true))(_ => ())
      }
      val c0 = crown.workOps; val i0 = ivm.workOps
      for (t <- grid) {
        crown.processUpdate(Upd("G1", t, isInsert = true))(_ => ())
        ivm.processUpdate(Upd("G1", t, isInsert = true))(_ => ())
      }
      val updates = (n * n).toDouble
      ((crown.workOps - c0) / updates, (ivm.workOps - i0) / updates)
    }
    val (c4, i4) = load(4)
    val (c8, i8) = load(8)
    // CROWN per-update work stays ~constant; standard CP grows polynomially
    assert(c8 / c4 < 2.5, s"CROWN per-update work grew: $c4 -> $c8")
    assert(i8 / i4 > 3.0, s"standard CP should blow up: $i4 -> $i8")
    assert(i8 > 10 * c8, s"standard CP ($i8) should dwarf CROWN ($c8)")
  }

  test("q-hierarchical star: O(1) amortized work under arbitrary updates (Lemma 6.8)") {
    val cq = Queries.star3(1000)
    val tree = JoinTree.choose(cq).get
    assert(tree.height == 1)
    def avgOps(m: Int): Double = {
      val rnd = new Random(2)
      val eng = new CrownEngine(cq, tree)
      val present = scala.collection.mutable.ArrayBuffer.empty[Tup.T]
      for (_ <- 0 until m) {
        val ins = present.isEmpty || rnd.nextDouble() < 0.7
        val t = if (ins) Tup(rnd.nextInt(m / 4).toLong, rnd.nextInt(m / 4).toLong)
                else present.remove(rnd.nextInt(present.size))
        if (ins) present += t
        for (a <- Seq("G1", "G2", "G3")) eng.processUpdate(Upd(a, t, ins))(_ => ())
      }
      eng.workOps.toDouble / m
    }
    val a1 = avgOps(400); val a2 = avgOps(1600)
    assert(a2 / a1 < 1.6, s"work per update grew with stream length: $a1 -> $a2")
  }

  test("Lemma 6.9 consequence: FIFO 3-hop work per update is size-independent") {
    val cq = Queries.hop3Full(1000)
    val tree = JoinTree.choose(cq).get
    def avgOps(m: Int): Double = {
      val eng = new CrownEngine(cq, tree)
      val base = Updates.fifoWindow("G", randomEdges(m, m / 5, 3), w = m / 4)
      val perAtom = Updates.expandSelfJoin(base, Map("G" -> Seq("G1", "G2", "G3")))
      perAtom.foreach(u => eng.processUpdate(u)(_ => ()))
      eng.workOps.toDouble / perAtom.size
    }
    val a1 = avgOps(300); val a2 = avgOps(1200)
    assert(a2 / a1 < 2.0, s"FIFO work per update grew: $a1 -> $a2")
  }

  test("Fig 9 mechanism: work per update grows ~linearly with λ") {
    val cq = Queries.hop3Full(1000)
    val tree = JoinTree.choose(cq).get
    def opsPerUpdate(k: Int): Double = {
      val eng = new CrownEngine(cq, tree)
      val base = Updates.lambdaSequence("G", hubs = k, churns = k)
      val perAtom = Updates.expandSelfJoin(base, Map("G" -> Seq("G1", "G2", "G3")))
      perAtom.foreach(u => eng.processUpdate(u)(_ => ()))
      eng.workOps.toDouble / perAtom.size
    }
    val w4 = opsPerUpdate(4); val w16 = opsPerUpdate(16); val w64 = opsPerUpdate(64)
    assert(w16 > w4 && w64 > w16, s"work should grow with λ: $w4, $w16, $w64")
    assert(w64 / w16 > 2.0, s"growth too slow for Θ(λ): $w16 -> $w64")
  }

  test("Lemma 7.2: dumbbell GHD space stays within O(N^1.5)") {
    val eng = new BagEngine(Queries.dumbbellFull(1000).output)
    val n = 600
    val edges = randomEdges(n, 120, 4)
    for (e <- edges; a <- (1 to 7).map(i => s"G$i"))
      eng.processUpdate(Upd(a, e, isInsert = true))(_ => ())
    val bound = 40.0 * 7 * math.pow(n.toDouble, 1.5)
    assert(eng.spaceEntries < bound, s"space ${eng.spaceEntries} exceeds O(N^1.5) bound $bound")
  }

  test("insertion-only load builds the static index in ~linear work (Lemma 6.10)") {
    val cq = Queries.hop4Full(1000)
    val tree = JoinTree.choose(cq).get
    def totalOps(m: Int): Double = {
      val eng = new CrownEngine(cq, tree)
      for (e <- randomEdges(m, 4 * m / 5, 5); a <- Seq("G1", "G2", "G3", "G4"))
        eng.processUpdate(Upd(a, e, isInsert = true))(_ => ())
      eng.workOps.toDouble
    }
    val t1 = totalOps(500); val t2 = totalOps(2000)
    assert(t2 / t1 < 8.0, s"load work superlinear: $t1 -> $t2") // 4x data → <8x work
  }
}
