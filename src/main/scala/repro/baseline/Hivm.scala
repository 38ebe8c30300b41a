package repro.baseline

import repro.core.{CQ, LongIntAcc, Proj, Tup}
import repro.core.Tup.T

/** Higher-order IVM in the DBToaster mold (§2, [4]): for a chain-shaped plan
  * over atoms `a_1..a_n`, materialize the prefix views
  * `P_i = a_1 ⋈ ... ⋈ a_i` for i < n and the suffix views
  * `S_i = a_i ⋈ ... ⋈ a_n` for i > 1 (each projected to output ∪ linking
  * attributes). These are exactly the first-order delta queries of each
  * relation: the delta of an update `t → a_j` is read off as
  * `P_{j-1} ⋈ t ⋈ S_{j+1}` with two index lookups — DBToaster's fast delta
  * emission — while *maintaining* the delta views costs the same polynomial
  * work/space that makes HIVM blow up on join-heavy queries (the behaviour
  * Figs 7/8/12 show). `P_n` and `S_1` would be the whole join, which no
  * delta query reads, so they are not kept. Result counts are kept for
  * set-semantics emission and full enumeration.
  *
  * The prefix views are a [[ChainViews]] over `a_1..a_n`, the suffix views
  * one over `a_n..a_1`, both `n - 1` levels deep.
  *
  * Scope note (documented in DESIGN.md): this is depth-1 HIVM specialized to
  * the chain/star plans of the benchmark queries, not a full recursive
  * DBToaster compiler.
  */
final class Hivm(cq: CQ, maxOpsPerUpdate: Long = Long.MaxValue)
    extends ChainEngine(cq, maxOpsPerUpdate) {
  override def name: String = "HIVM"

  private val n = cq.atoms.size
  // numbering atoms from 0: P_i (atoms 0..i) is prefix level i, and S_i
  // (atoms i..n-1) is suffix level n-1-i
  private val pref = new ChainViews(this, Vector.range(0, n), n - 1)
  private val suf = new ChainViews(this, Vector.range(0, n).reverse, n - 1)

  /** `P_{j-1} ⋈ t ⋈ S_{j+1}` for an update `t` to atom `j`, compiled: the
    * left side gathers the ids of a `P_{j-1}` tuple and of `t` (or is `t`
    * alone for j = 0) and probes `S_{j+1}` (none for j = n - 1) on `key`;
    * `sharedL` and `sharedR` are any further attributes the two sides must
    * agree on. The left side stays an id array: it is only probed.
    */
  private final class Emission(j: Int) {
    private val atom = cq.atoms(j).attrs
    private val prev = if (j > 0) pref.attrs(j - 1) else Vector.empty
    private val left = prev ++ atom.filterNot(prev.contains)
    val leftFromPrev: Array[Int] = left.map(prev.indexOf).toArray
    val leftFromAtom: Array[Int] = left.map(atom.indexOf).toArray
    val sufLevel: Int = n - 2 - j
    private val right = if (sufLevel >= 0) suf.attrs(sufLevel) else Vector.empty
    private val keyAttrs = if (sufLevel >= 0) suf.join(sufLevel + 1) else Vector.empty
    val key: Proj = new Proj(dict, left.length, Tup.projIdx(left, keyAttrs))
    private val shared = right.filter(a => left.contains(a) && !keyAttrs.contains(a))
    val sharedL: Array[Int] = Tup.projIdx(left, shared)
    val sharedR: Array[Int] = Tup.projIdx(right, shared)
    val outL: Array[Int] = cq.output.map(left.indexOf).toArray
    val outR: Array[Int] = cq.output.map(right.indexOf).toArray
    // reused id buffers: a P_{j-1} tuple, the left side, an S_{j+1} tuple, a result
    val prevIds = new Array[Int](prev.length)
    val leftIds = new Array[Int](left.length)
    val rightIds = new Array[Int](right.length)
    val outIds = new Array[Int](cq.output.length)
  }
  private val emission = Array.tabulate(n)(new Emission(_))
  /** The result delta of one update, summed by result tuple. */
  private val outs = new LongIntAcc

  override protected def propagate(j: Int, t: Long, ids: Array[Int], sign: Int, emit: T => Unit): Long = {
    // 1. the result delta, read off the views before they change
    val e = emission(j)
    if (j == 0) probe(e, ids, 1)
    else {
      val b = pref.bucket(j - 1, pref.keyOfAtom(j).fromIds(ids))
      if (b != null) {
        var s = b.nextSlot(0)
        while (s >= 0) {
          tick()
          unpack(b.keyAt(s), e.prevIds)
          probe(e, ids, b.valueAt(s))
          s = b.nextSlot(s + 1)
        }
      }
    }
    var emitted = 0L
    var i = 0
    while (i < outs.size) {
      if (outs.valueAt(i) != 0) emitted += addResult(outs.keyAt(i), outs.valueAt(i) * sign, emit)
      i += 1
    }
    discard(outs, wideOut)
    // 2. maintain the delta views
    pref.propagate(j, t, ids, sign, emit)
    suf.propagate(j, t, ids, sign, emit)
    emitted
  }

  /** Join the left side made of `e.prevIds` and the updated tuple's `ids`,
    * with `lc` derivations, to `S_{j+1}`, adding the results to `outs`.
    */
  private def probe(e: Emission, ids: Array[Int], lc: Int): Unit = {
    val left = e.leftIds
    ChainViews.gather(e.leftFromPrev, e.leftFromAtom, e.prevIds, ids, left)
    if (e.sufLevel < 0) {
      ChainViews.gather(e.outL, e.outR, left, e.rightIds, e.outIds)
      addDelta(outs, wideOut, intern(e.outIds), lc)
    } else {
      val b = suf.bucket(e.sufLevel, e.key.fromIds(left))
      if (b != null) {
        val right = e.rightIds
        var s = b.nextSlot(0)
        while (s >= 0) {
          tick()
          unpack(b.keyAt(s), right)
          var k = 0
          while (k < e.sharedL.length && left(e.sharedL(k)) == right(e.sharedR(k))) k += 1
          if (k == e.sharedL.length) {
            ChainViews.gather(e.outL, e.outR, left, right, e.outIds)
            addDelta(outs, wideOut, intern(e.outIds), lc * b.valueAt(s))
          }
          s = b.nextSlot(s + 1)
        }
      }
    }
  }

  override protected def viewEntries: Long = pref.entries + suf.entries
}
