package repro.baseline

/** Thrown by a baseline engine when one update exceeds its intra-update work
  * budget. The paper's missing bars are runs that "did not finish within the
  * 4-hour limit or aborted with an error (mostly out-of-memory errors)" —
  * the standard-CP/HIVM engines can blow up *inside a single update* (a hub
  * edge joining two power-law fans materializes millions of intermediate
  * delta tuples), where a between-updates wall-clock budget cannot help.
  * The driver treats this as a DNF. The update is left half-applied, so the
  * engine that threw it refuses any further use.
  */
final class BudgetExceeded(val engine: String, val ops: Long)
    extends RuntimeException(s"$engine exceeded $ops ops inside one update")

object Budget {
  /** Default intra-update op cap for baseline engines in benchmarks
    * (REPRO_UPDATE_OPS to override). Roughly a few seconds of work.
    */
  def maxOpsPerUpdate: Long =
    sys.env.get("REPRO_UPDATE_OPS").map(_.toLong).getOrElse(20_000_000L)
}
