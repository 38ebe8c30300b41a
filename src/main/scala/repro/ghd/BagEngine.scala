package repro.ghd

import repro.core._
import repro.core.Tup.T

/** §7.1 cyclic queries via GHD: the dumbbell query
  * `G1..G3 (triangle x1x2x3) ⋈ G4(x3,x4) ⋈ G5..G7 (triangle x4x5x6)`
  * becomes two incrementally-maintained triangle bags `B1(x1,x2,x3)`,
  * `B2(x4,x5,x6)` bridged by `G4`, with the paper's join-free change
  * propagation running *across* the bags (Fig 5(b)).
  *
  * `output` selects the full (all six variables) or projected (x3, x4)
  * variant. Updates address the edge roles G1..G7; triangle deltas stream
  * into the inner CROWN plan as base-table updates, and the concatenated
  * inner deltas are exactly `ΔQ` (telescoping, §3.1).
  */
final class BagEngine(val output: Vector[String], permille: Int = 1000)
    extends IncrementalEngine {
  override def name: String = "CROWN-GHD"

  private val innerCq = CQ("dumbbell-inner",
    Vector(Atom("B1", Vector("x1", "x2", "x3")), Atom("G4", Vector("x3", "x4")),
           Atom("B2", Vector("x4", "x5", "x6"))),
    output,
    atomFilters =
      if (permille >= 1000) Map.empty
      else Map("G4" -> repro.workload.Queries.filterAtom(1, permille)))

  private val tree = JoinTree.choose(innerCq).getOrElse(
    throw new IllegalStateException("no free-connex tree for dumbbell GHD plan"))
  private val inner = new CrownEngine(innerCq, tree)

  private val tri1 = new TriangleView("G1", "G2", "G3")
  private val tri2 = new TriangleView("G5", "G6", "G7")

  override def processUpdate(u: Upd)(emit: T => Unit): Long = {
    u.rel match {
      case "G1" | "G2" | "G3" =>
        tri1.update(u.rel, u.t, u.isInsert).map { b =>
          inner.processUpdate(Upd("B1", b, u.isInsert, u.ts))(emit)
        }.sum
      case "G5" | "G6" | "G7" =>
        tri2.update(u.rel, u.t, u.isInsert).map { b =>
          inner.processUpdate(Upd("B2", b, u.isInsert, u.ts))(emit)
        }.sum
      case "G4" => inner.processUpdate(u)(emit)
      case other => throw new IllegalArgumentException(s"unknown relation $other")
    }
  }

  override def enumerateFull(cb: T => Boolean): Unit = inner.enumerateFull(cb)
  override def spaceEntries: Long =
    tri1.spaceEntries + tri2.spaceEntries + inner.spaceEntries
  override def workOps: Long = tri1.workOps + tri2.workOps + inner.workOps

  /** Dictionary entries of the cross-bag CROWN plan. */
  def dictEntries: Long = inner.dictEntries

  /** Height of the cross-bag plan (for reports). */
  def planHeight: Int = tree.height
}
