package repro.stream

import org.apache.spark.sql.SparkSession
import repro.core._

/** Distributed CROWN on Spark (§8.1: "we borrow a similar idea from
  * massively parallel algorithms, such as HyperCube").
  *
  * One-dimensional HyperCube sharding: pick an output attribute of the
  * plan's root as the partition attribute (every result carries it, so
  * shard outputs are disjoint by construction and no dedup is needed; a
  * non-output attribute would let two shards derive one projected result
  * from different values of it); updates whose atom contains the
  * attribute go to shard `hash(value) mod p`, updates to atoms without it
  * are replicated to every shard — exactly the broadcast dimension of a
  * HyperCube grid, and the reason speedup turns sublinear at high p.
  *
  * Each shard runs a full [[CrownEngine]] inside one Spark task over its
  * pre-sharded update stream (an operator instance per partition, as the
  * repro maps Flink operators onto Spark).
  */
object Hypercube {

  /** Partition attribute: the first root attribute that is an output
    * attribute ([[CrownEngine]] requires the root to carry one).
    */
  def partitionAttr(cq: CQ, tree: JTNode): String =
    tree.attrs.find(cq.output.contains).getOrElse(
      throw new IllegalArgumentException(s"root of $tree carries no output attribute"))

  /** Shard a per-atom update sequence. */
  def shard(cq: CQ, tree: JTNode, updates: Seq[Upd], p: Int): IndexedSeq[Vector[Upd]] = {
    val attr = partitionAttr(cq, tree)
    val pos: Map[String, Int] = cq.atoms.map(a => a.name -> a.attrs.indexOf(attr)).toMap
    val buckets = IndexedSeq.fill(p)(Vector.newBuilder[Upd])
    for (u <- updates) {
      val i = pos(u.rel)
      if (i < 0) buckets.foreach(_ += u) // broadcast dimension
      else {
        val h = ((u.t(i).hashCode * 2654435761L) % p + p) % p
        buckets(h.toInt) += u
      }
    }
    buckets.map(_.result())
  }

  final case class ShardStats(shard: Int, updates: Long, deltas: Long, millis: Double,
                              space: Long)

  /** Result of one parallel run: the slowest shard's time inside its task
    * (the makespan; it leaves out any wait for a core), the wall-clock time
    * of the whole job, and per-shard stats.
    */
  final case class ParStats(p: Int, makespanMillis: Double, wallMillis: Double,
                            totalDeltas: Long, shards: Seq[ShardStats])

  /** Run the sharded streams as one Spark job with `p` tasks, each shard
    * through [[Driver.run]]; a shard's `space` is its peak space.
    */
  def runParallel(spark: SparkSession, cq: CQ, tree: JTNode, updates: Seq[Upd],
                  p: Int): ParStats = {
    val shards = shard(cq, tree, updates, p)
    val rdd = spark.sparkContext.parallelize(shards.zipWithIndex.map(_.swap), p)
    val t0 = System.nanoTime()
    val stats = rdd.map { case (i, us) =>
      // no time budget: a day is beyond any stream this runs
      val st = Driver.run(new CrownEngine(cq, tree), us, budgetMillis = 24L * 3600 * 1000)
      ShardStats(i, st.updates, st.deltas, st.millis, st.peakSpace)
    }.collect().toSeq
    val wall = (System.nanoTime() - t0) / 1e6
    ParStats(p, stats.map(_.millis).max, wall, stats.map(_.deltas).sum, stats)
  }
}
