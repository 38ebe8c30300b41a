package crownbench

import repro.baseline.{Budget, Hivm, StandardIvm}
import repro.core.{CQ, Compiler, CrownEngine, IncrementalEngine, JTNode, Upd}
import repro.stream.Updates
import repro.workload.Queries

/** An engine that a workload's passes run, with the layer name its spans
  * carry (`core`, `baseline.stdivm`, `baseline.hivm`).
  */
final case class EngineSpec(layer: String, make: () => IncrementalEngine)

/** One benchmark workload: a graph query over a seeded power-law edge
  * stream, and the engines whose passes are timed.
  *
  * @param window    FIFO window size in edges; None for an insertion-only stream
  * @param baselines time StandardIvm and then Hivm; CROWN is then the untimed reference
  */
final case class Workload(
    name: String,
    why: String,
    cq: CQ,
    nVertices: Int,
    nEdges: Int,
    window: Option[Int],
    baselines: Boolean,
    warmupPasses: Int)

/** The inputs one setup builds, and the time each setup phase took. */
final class Prepared(val updates: Array[Upd], val tree: JTNode, val engines: Seq[EngineSpec],
                     val genNanos: Long, val buildNanos: Long, val compileNanos: Long) {
  def setupNanos: Long = genNanos + buildNanos + compileNanos
}

object Workloads {

  val all: Seq[Workload] = Seq(
    Workload("fifo-3hop-proj",
      "half the updates are deletes with few deltas each: R-Update, the S/P-Update cascade " +
        "and the delete dry run plus apply dominate; enumeration is nearly idle",
      Queries.hop3Proj(1000), nVertices = 10000, nEdges = 100000, window = Some(20000),
      baselines = false, warmupPasses = 2),
    Workload("insert-3hop-enum",
      "insertion-only and output-bound: delta enumeration, live views and full enumeration " +
        "dominate; the delete path is never taken",
      Queries.hop3Full(10), nVertices = 10000, nEdges = 20000, window = None,
      baselines = false, warmupPasses = 3),
    Workload("fifo-3hop-baselines",
      "the chain-of-views baselines (StandardIvm, then Hivm) do all the timed work on the " +
        "first workload's query and stream shape at a smaller scale",
      Queries.hop3Proj(1000), nVertices = 1000, nEdges = 4000, window = Some(1000),
      baselines = true, warmupPasses = 2),
  )

  def byName(name: String): Option[Workload] = all.find(_.name == name)

  /** Time `body`; in a traced run also record it as a root span. */
  private def phase[A](trace: Trace, name: String)(body: => A): (A, Long) = {
    val s = System.nanoTime()
    val a = body
    val e = System.nanoTime()
    if (trace != null) trace.leaf(trace.id(name), s, e)
    (a, e - s)
  }

  /** Generate the inputs, build the update stream and compile the plan. */
  def setup(w: Workload, seed: Long, trace: Trace): Prepared = {
    val (edges, gen) = phase(trace, "bench.gen")(Gen.edges(w.nVertices, w.nEdges, seed))
    val (updates, build) = phase(trace, "stream.build") {
      val base = w.window match {
        case Some(k) => Updates.fifoWindow("G", edges.toSeq, k)
        case None    => Updates.insertionOnly("G", edges.toSeq)
      }
      Updates.expandSelfJoin(base, Queries.graphCopies(w.cq)).toArray
    }
    val (engine, compile) = phase(trace, "core.plan.compile")(Compiler.compile(w.cq))
    val tree = engine match {
      case c: CrownEngine => c.treeSpec
      case other => throw new IllegalStateException(s"${w.cq.name} compiled to ${other.name}, not CROWN")
    }
    val engines =
      if (w.baselines) Seq(
        EngineSpec("baseline.stdivm", () => new StandardIvm(w.cq, Budget.maxOpsPerUpdate)),
        EngineSpec("baseline.hivm", () => new Hivm(w.cq, Budget.maxOpsPerUpdate)))
      else Seq(EngineSpec("core", () => new CrownEngine(w.cq, tree)))
    new Prepared(updates, tree, engines, gen, build, compile)
  }
}
