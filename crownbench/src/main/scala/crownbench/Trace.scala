package crownbench

import java.io.{BufferedWriter, File, FileOutputStream, OutputStreamWriter}
import java.util.zip.GZIPOutputStream
import scala.collection.mutable

/** In-memory span recorder for the traced run. A span has a name, a start,
  * an end (`System.nanoTime`) and the index of its parent span (-1 for a
  * root). Spans are kept in growable primitive arrays and written out once,
  * when the run ends. The caller is single-threaded, so the open spans form
  * a stack and a new span's parent is the innermost open one.
  */
final class Trace {
  private val names = mutable.ArrayBuffer.empty[String]
  private val ids = mutable.HashMap.empty[String, Int]
  private var nameOf = new Array[Int](1 << 16)
  private var starts = new Array[Long](1 << 16)
  private var ends = new Array[Long](1 << 16)
  private var parents = new Array[Int](1 << 16)
  private var open = -1
  var size = 0

  def id(name: String): Int = ids.getOrElseUpdate(name, { names += name; names.length - 1 })

  private def add(name: Int, start: Long, end: Long): Int = {
    if (size == starts.length) {
      val n = 2 * size
      nameOf = java.util.Arrays.copyOf(nameOf, n)
      starts = java.util.Arrays.copyOf(starts, n)
      ends = java.util.Arrays.copyOf(ends, n)
      parents = java.util.Arrays.copyOf(parents, n)
    }
    nameOf(size) = name; starts(size) = start; ends(size) = end; parents(size) = open
    size += 1
    size - 1
  }

  /** Open a span; close it with [[end]]. */
  def begin(name: Int): Int = { val i = add(name, System.nanoTime(), 0L); open = i; i }

  def end(span: Int): Unit = { ends(span) = System.nanoTime(); open = parents(span) }

  /** Record a finished span, timed by the caller, under the open span. */
  def leaf(name: Int, start: Long, end: Long): Unit = add(name, start, end)

  /** Calls and self nanoseconds per span name over spans `[from, until)`. */
  def selfTimes(from: Int, until: Int): Map[String, (Long, Long)] = {
    val self = Trace.selfNanos(starts, ends, parents, until)
    val calls = new Array[Long](names.length)
    val nanos = new Array[Long](names.length)
    var i = from
    while (i < until) { calls(nameOf(i)) += 1; nanos(nameOf(i)) += self(i); i += 1 }
    names.indices.filter(calls(_) > 0).map(k => names(k) -> (calls(k), nanos(k))).toMap
  }

  /** Write all spans as gzipped CSV: index, name, start, end, parent. */
  def write(file: File): Unit = {
    file.getParentFile.mkdirs()
    val w = new BufferedWriter(new OutputStreamWriter(
      new GZIPOutputStream(new FileOutputStream(file), 1 << 16), "UTF-8"), 1 << 16)
    try {
      w.write("span,name,start_ns,end_ns,parent\n")
      var i = 0
      while (i < size) {
        w.write(s"$i,${names(nameOf(i))},${starts(i)},${ends(i)},${parents(i)}\n")
        i += 1
      }
    } finally w.close()
  }
}

object Trace {

  /** Self time of each of the first `n` spans: its duration minus the part
    * of its interval that its child spans cover. Children of one parent come
    * from one thread, so they do not overlap one another.
    */
  def selfNanos(starts: Array[Long], ends: Array[Long], parents: Array[Int], n: Int): Array[Long] = {
    val self = new Array[Long](n)
    var i = 0
    while (i < n) { self(i) = ends(i) - starts(i); i += 1 }
    i = 0
    while (i < n) {
      val p = parents(i)
      if (p >= 0) {
        val covered = math.min(ends(i), ends(p)) - math.max(starts(i), starts(p))
        if (covered > 0) self(p) -= covered
      }
      i += 1
    }
    self
  }
}
