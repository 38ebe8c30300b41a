package repro.baseline

import repro.core.CQ
import repro.core.Tup.T

/** Standard change propagation (§1, Fig 1(a)): a left-deep join plan whose
  * every intermediate view `V_i = π(a_1 ⋈ ... ⋈ a_i)` is materialized as a
  * multiset with derivation counts; an update to `a_j` joins its delta
  * through `V_{j-1}` and then the remaining base relations, updating every
  * view above `j`. This is the engine model of Flink SQL and Trill in the
  * paper's comparison: correct for arbitrary updates, but with the
  * polynomial intermediate-view blowup in both space and time that CROWN is
  * designed to avoid.
  *
  * The plan is one full [[ChainViews]] over the atoms in query order: views
  * are projected onto (output ∪ still-needed join attributes), the usual
  * projection pushdown, and the top view is the result, whose deltas are
  * emitted under set semantics (count 0↔1).
  */
final class StandardIvm(cq: CQ, maxOpsPerUpdate: Long = Long.MaxValue)
    extends ChainEngine(cq, maxOpsPerUpdate) {
  override def name: String = "StandardIVM"

  private val chain = new ChainViews(this, cq.atoms.indices.toVector, cq.atoms.size)

  override protected def propagate(j: Int, t: T, sign: Int, emit: T => Unit): Long =
    chain.propagate(j, t, sign, emit)

  override protected def viewEntries: Long = chain.entries
}
