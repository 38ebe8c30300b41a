package repro.spark

import repro.SparkSpec
import repro.baseline.{Hivm, StandardIvm}
import repro.core._
import repro.exp.Runners
import repro.workload.Queries

/** CROWN and both baselines on the SNB-lite streams of Figs 7 and 8, whose
  * tuples are 3-ary `person` and `message` rows, `String` names and `null`
  * reply ids: the engines must emit the same delta after every update and
  * hold the same full result every 500 updates, and the drained window must
  * leave no dictionary entry. Q4 runs through the COUNT DISTINCT adapter on
  * each engine. The streams are those of `Runners.snbStream` at SF 1, as in Fig 7.
  */
class SnbDifferentialSpec extends SparkSpec {

  private val sf = 1.0

  private def agree(cq: CQ, wrap: IncrementalEngine => IncrementalEngine = identity): Unit = {
    val updates = Runners.snbStream(spark, cq, sf, windowDays = 90)
    val engines = Seq(Compiler.compile(cq), new StandardIvm(cq), new Hivm(cq)).map(wrap)
    EngineCheck.agreeOnStream(engines, updates)
  }

  test("SNB Q1: CROWN, StandardIVM and HIVM deltas agree on an SNB-lite stream") {
    agree(Queries.snbQ1)
  }
  test("SNB Q2: CROWN, StandardIVM and HIVM deltas agree on an SNB-lite stream") {
    agree(Queries.snbQ2(100))
  }
  test("SNB Q3 (result filter): CROWN, StandardIVM and HIVM deltas agree on an SNB-lite stream") {
    agree(Queries.snbQ3(100))
  }
  test("SNB Q4 (COUNT DISTINCT): CROWN, StandardIVM and HIVM deltas agree on an SNB-lite stream") {
    val cq = Queries.snbQ4Extended(100)
    agree(cq, e => new GroupCountDistinctAdapter(e, cq.output, Vector("nm", "t"), "m"))
  }
}
