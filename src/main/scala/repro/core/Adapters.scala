package repro.core

import repro.core.Tup.T
import scala.collection.mutable

/** §7.1 adapters layered over an inner engine.
  *
  * [[ProjectionAdapter]] evaluates an acyclic but non-free-connex query by
  * running the inner engine on a free-connex output extension `y' ⊇ y` and
  * deduplicating the final projection with derivation counters (a projection
  * result appears/disappears when its count crosses 0↔1). As the paper notes,
  * the constant-delay guarantee is lost but correctness is preserved.
  *
  * [[GroupCountDistinctAdapter]] implements the SNB Q4 pattern
  * `GROUP BY g, COUNT(DISTINCT d)`: it consumes the extended delta stream and
  * maintains per-group distinct counts. When a group's count changes it emits
  * the new `(g..., count)`, 0 once the group empties, and retracts no old one.
  */
final class ProjectionAdapter(val inner: IncrementalEngine, extendedOutput: Vector[String],
                              val output: Vector[String]) extends IncrementalEngine {
  override def name: String = inner.name + "+dedup"

  private val projIdx = Tup.projIdx(extendedOutput, output)
  private val counts = mutable.HashMap.empty[T, Int]

  override def processUpdate(u: Upd)(emit: T => Unit): Long = {
    var n = 0L
    inner.processUpdate(u) { ext =>
      val p = Tup.proj(ext, projIdx)
      if (u.isInsert) {
        val c = counts.getOrElse(p, 0)
        counts(p) = c + 1
        if (c == 0) { emit(p); n += 1 }
      } else {
        val c = counts(p)
        if (c == 1) { counts.remove(p); emit(p); n += 1 }
        else counts(p) = c - 1
      }
    }
    n
  }

  override def enumerateFull(cb: T => Boolean): Unit = {
    val it = counts.keysIterator
    var go = true
    while (go && it.hasNext) go = cb(it.next())
  }

  override def spaceEntries: Long = inner.spaceEntries + counts.size
  override def workOps: Long = inner.workOps
}

/** Group-by count-distinct over the delta stream of an extended-output
  * engine: `groupVars` are the grouping output attributes, `distinctVar` the
  * counted one. A [[ProjectionAdapter]] onto `(group..., distinct)` emits a
  * pair when it appears or disappears; the group's count of distinct values
  * moves by one with it. Emitted tuples are `(group..., count)`; full
  * enumeration yields the current aggregate table.
  */
final class GroupCountDistinctAdapter(val inner: IncrementalEngine,
                                      extendedOutput: Vector[String],
                                      groupVars: Vector[String],
                                      distinctVar: String) extends IncrementalEngine {
  override def name: String = inner.name + "+count-distinct"

  private val pairs = new ProjectionAdapter(inner, extendedOutput, groupVars :+ distinctVar)
  // group -> #distinct values
  private val groupCounts = mutable.HashMap.empty[T, Long]

  override def processUpdate(u: Upd)(emit: T => Unit): Long =
    pairs.processUpdate(u) { pair =>
      val g = pair.init
      val gc = groupCounts.getOrElse(g, 0L) + (if (u.isInsert) 1 else -1)
      if (gc == 0) groupCounts.remove(g) else groupCounts(g) = gc
      emit(Tup((g :+ gc.asInstanceOf[Any]): _*))
    }

  override def enumerateFull(cb: T => Boolean): Unit = {
    val it = groupCounts.iterator
    var go = true
    while (go && it.hasNext) {
      val (g, c) = it.next()
      go = cb(Tup((g :+ c.asInstanceOf[Any]): _*))
    }
  }

  override def spaceEntries: Long = pairs.spaceEntries + groupCounts.size
  override def workOps: Long = inner.workOps
}

/** Compile a CQ to the best available engine: a plain [[CrownEngine]] when a
  * free-connex tree exists, otherwise the §7.1 output extension wrapped in a
  * [[ProjectionAdapter]]. `updateCounts` feeds the §6.3 plan heuristic.
  */
object Compiler {
  def compile(cq: CQ, updateCounts: Map[String, Long] = Map.empty): IncrementalEngine =
    JoinTree.choose(cq, updateCounts) match {
      case Some(t) => new CrownEngine(cq, t)
      case None =>
        val y2 = Hypergraph.freeConnexExtension(cq).getOrElse(
          throw new IllegalArgumentException(s"${cq.name}: cyclic query needs a GHD plan"))
        val ext = cq.withOutput(y2)
        val t = JoinTree.choose(ext, updateCounts).getOrElse(
          throw new IllegalStateException(s"${cq.name}: no tree for extension $y2"))
        new ProjectionAdapter(new CrownEngine(ext, t), y2, cq.output)
    }
}
