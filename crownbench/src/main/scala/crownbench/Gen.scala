package crownbench

import java.util.SplittableRandom
import repro.core.Tup
import repro.core.Tup.T

/** The benchmark's input generator (the `bench` layer).
  *
  * It follows the recipe of `repro.workload.GraphData.edges` — inverse-CDF
  * power-law endpoints with α = 1.6, distinct edges, self-loops kept, at most
  * 6 × `nEdges` draws — but runs without Spark, and returns the edges in a
  * seeded random arrival order (GraphData's local copy is sorted by source,
  * which would make every FIFO window a range of sources).
  */
object Gen {

  /** GraphData's power-law exponent α. */
  private val Alpha = 1.6

  def edges(nVertices: Int, nEdges: Int, seed: Long): Array[T] = {
    val rnd = new SplittableRandom(seed)
    val exponent = -1.0 / (Alpha - 1.0)
    def draw(): Long =
      math.min(nVertices - 1L,
        math.max(0L, (math.pow(rnd.nextDouble() + 1e-12, exponent) - 1.0).toLong % nVertices))
    val seen = new java.util.HashSet[java.lang.Long](2 * nEdges)
    val out = new Array[T](nEdges)
    var n = 0
    var draws = 0L
    while (n < nEdges && draws < 6L * nEdges) {
      val s = draw()
      val d = draw()
      if (seen.add(s * nVertices + d)) { out(n) = Tup(s, d); n += 1 }
      draws += 1
    }
    var i = n - 1 // Fisher-Yates: arrival order independent of draw order
    while (i > 0) {
      val j = rnd.nextInt(i + 1)
      val t = out(i); out(i) = out(j); out(j) = t
      i -= 1
    }
    java.util.Arrays.copyOf(out, n)
  }
}
