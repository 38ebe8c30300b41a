package repro.stream

import repro.core.{Tup, Upd}
import repro.core.Tup.T

/** Update-sequence generators (§6.1, §8.1).
  *
  * Sequences are over *base tables*; [[expandSelfJoin]] turns a base-table
  * sequence into the per-atom sequence an engine consumes (§3.1: a self-join
  * applies every update to each copy; the per-copy deltas telescope to the
  * true delta, so engines process copies one after another).
  */
object Updates {

  /** FIFO sliding window (count-based, as for the paper's graph queries):
    * tuple i of `tuples` is inserted at time 2i and deleted at 2(i+w)-1,
    * so the window holds at most w tuples and the sequence is FIFO. The
    * updates come in time order: before the insert of tuple i, the delete
    * of tuple i − w, then the deletes left after the last insert.
    */
  def fifoWindow(rel: String, tuples: Seq[T], w: Int): Vector[Upd] = {
    require(w >= 1, s"window size $w < 1")
    val ts = tuples.toIndexedSeq
    def delete(j: Int) = Upd(rel, ts(j), isInsert = false, ts = 2L * (j + w) - 1)
    val out = Vector.newBuilder[Upd]
    for (i <- ts.indices) {
      if (i >= w) out += delete(i - w)
      out += Upd(rel, ts(i), isInsert = true, ts = 2L * i)
    }
    for (j <- math.max(0, ts.length - w) until ts.length) out += delete(j)
    out.result()
  }

  /** Insertion-only sequence (cash-register stream). */
  def insertionOnly(rel: String, tuples: Seq[T]): Vector[Upd] =
    tuples.zipWithIndex.map { case (t, i) => Upd(rel, t, isInsert = true, ts = i.toLong) }.toVector

  /** Time-based FIFO window over already-timestamped tuples (the paper's
    * LDBC-SNB streams): each tuple lives `[ts, ts + w)`.
    */
  def timedWindow(rows: Seq[(String, T, Long)], w: Long): Vector[Upd] = {
    val evs = rows.flatMap { case (rel, t, ts) =>
      Seq(Upd(rel, t, isInsert = true, ts = 2 * ts),
          Upd(rel, t, isInsert = false, ts = 2 * (ts + w) + 1))
    }
    evs.sortBy(_.ts).toVector
  }

  /** Expand a base-table sequence to per-atom updates for self-joins:
    * `copies(baseRel)` lists the atom names reading that base table.
    */
  def expandSelfJoin(updates: Seq[Upd], copies: Map[String, Seq[String]]): Vector[Upd] =
    updates.flatMap { u =>
      copies.getOrElse(u.rel, Seq(u.rel)).map(a => u.copy(rel = a))
    }.toVector

  /** λ-targeted sequence over a graph edge table (for Fig 9): `hubs` edges
    * `(b_i, center)` stay alive for the whole run while one churn edge
    * `(center, z)` is inserted and deleted `churns` times. In a 3-hop plan
    * the hub tuples (as the middle relation) all share the churned child key
    * `center`, so every churn toggles all their semi-join counters: CROWN's
    * per-update work and the sequence's λ_T both grow with
    * `hubs·churns / (hubs + churns)` — set `hubs ≈ churns` to target λ.
    */
  def lambdaSequence(rel: String, hubs: Int, churns: Int, center: Long = 0L,
                     churnDst: Long = 1000000L): Vector[Upd] = {
    var ts = 0L
    val out = Vector.newBuilder[Upd]
    for (i <- 1 to hubs) {
      out += Upd(rel, Tup(center + 10000L + i, center), isInsert = true, ts = ts); ts += 1
    }
    val churn = Tup(center, churnDst)
    for (_ <- 0 until churns) {
      out += Upd(rel, churn, isInsert = true, ts = ts); ts += 1
      out += Upd(rel, churn, isInsert = false, ts = ts); ts += 1
    }
    for (i <- 1 to hubs) {
      out += Upd(rel, Tup(center + 10000L + i, center), isInsert = false, ts = ts); ts += 1
    }
    out.result()
  }

  /** The Theorem 6.2 OuMv reduction: encodes boolean matrix `m` (n×n) and
    * vector pairs `(u_i, v_i)` as a FIFO update sequence for
    * `Q = R1(x1) ⋈ R2(x1,x2) ⋈ R3(x2,x3) ⋈ R4(x3,x4) ⋈ R5(x4)`.
    * Returns (updates, round-boundary timestamps): after processing all
    * updates up to boundary i, `Q(D) ≠ ∅` iff `u_i M v_i = 1`.
    */
  def ouMvSequence(m: Array[Array[Boolean]], us: Array[Array[Boolean]],
                   vs: Array[Array[Boolean]]): (Vector[Upd], Vector[Int]) = {
    val n = m.length
    val out = Vector.newBuilder[Upd]
    // matrix alive throughout
    for (j <- 0 until n; l <- 0 until n if m(j)(l))
      out += Upd("R3", Tup(j.toLong, l.toLong), isInsert = true, ts = 0)
    val boundaries = Vector.newBuilder[Int]
    var count = m.map(_.count(identity)).sum
    for (i <- 0 until n) {
      val tsDel = (3 * i).toLong
      val ts = (3 * i + 1).toLong
      // retire the previous round first (FIFO), so the boundary check below
      // sees exactly round i's vectors
      if (i > 0) {
        val del = Vector(
          Upd("R1", Tup((i - 1).toLong), isInsert = false, ts = tsDel),
          Upd("R5", Tup((i - 1).toLong), isInsert = false, ts = tsDel)) ++
          (0 until n).filter(us(i - 1)).map(j =>
            Upd("R2", Tup((i - 1).toLong, j.toLong), isInsert = false, ts = tsDel)) ++
          (0 until n).filter(vs(i - 1)).map(l =>
            Upd("R4", Tup(l.toLong, (i - 1).toLong), isInsert = false, ts = tsDel))
        del.foreach(out += _)
        count += del.size
      }
      val roundIns = Vector.newBuilder[Upd]
      roundIns += Upd("R1", Tup(i.toLong), isInsert = true, ts = ts)
      roundIns += Upd("R5", Tup(i.toLong), isInsert = true, ts = ts)
      for (j <- 0 until n if us(i)(j))
        roundIns += Upd("R2", Tup(i.toLong, j.toLong), isInsert = true, ts = ts)
      for (l <- 0 until n if vs(i)(l))
        roundIns += Upd("R4", Tup(l.toLong, i.toLong), isInsert = true, ts = ts)
      val ins = roundIns.result()
      ins.foreach(out += _)
      count += ins.size
      boundaries += count
    }
    (out.result(), boundaries.result())
  }
}
