package crownbench

import org.scalatest.funsuite.AnyFunSuite

class TraceSpec extends AnyFunSuite {

  test("self time is the duration minus what the children cover") {
    // 0: [0, 100) root; 1: [10, 30) and 2: [40, 50) under 0; 3: [12, 20) under 1
    val starts = Array(0L, 10L, 40L, 12L)
    val ends = Array(100L, 30L, 50L, 20L)
    val parents = Array(-1, 0, 0, 1)
    assert(Trace.selfNanos(starts, ends, parents, 4).toSeq == Seq(70L, 12L, 10L, 8L))
  }

  test("a child is clipped to its parent's interval") {
    val self = Trace.selfNanos(Array(0L, 90L), Array(100L, 120L), Array(-1, 0), 2)
    assert(self.toSeq == Seq(90L, 30L))
  }

  test("self times and calls aggregate by name over a span range") {
    val t = new Trace
    val pass = t.id("bench.pass")
    val ins = t.id("core.insert")
    val p = t.begin(pass)
    t.leaf(ins, 0L, 5L)
    t.leaf(ins, 5L, 12L)
    t.end(p)
    val other = t.begin(pass)
    t.end(other)
    val s = t.selfTimes(0, 3)
    assert(s("core.insert") == ((2L, 12L)))
    assert(s("bench.pass")._1 == 1)
    assert(t.selfTimes(3, 4).keySet == Set("bench.pass"))
  }
}
