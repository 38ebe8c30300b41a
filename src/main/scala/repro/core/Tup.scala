package repro.core

import scala.collection.immutable.ArraySeq

/** Tuple representation and projection helpers shared by every engine.
  *
  * A tuple is an `ArraySeq[Any]` — structural equality and hashing come for
  * free, which is what the hash-indexed views in the paper need. Attribute
  * order is positional and owned by whoever created the tuple (an atom's
  * attribute vector, a tree node's attribute vector, the query's output
  * vector); projections are compiled once into index arrays.
  */
object Tup {

  /** A tuple: positional values, structural equality/hash. */
  type T = ArraySeq[Any]

  /** Build a tuple from varargs. */
  def apply(vals: Any*): T = ArraySeq(vals: _*)

  /** The empty tuple (projection onto zero attributes). */
  val empty: T = ArraySeq.empty[Any]

  /** Raise an argument error, before any state changes, if a tuple `t` of
    * relation `rel` does not have the relation's `arity`.
    */
  def checkArity(rel: String, arity: Int, t: T): Unit =
    if (t.length != arity) throw new IllegalArgumentException(
      s"relation $rel has arity $arity, but a tuple of arity ${t.length} was given: $t")

  /** Project `t` through a precompiled index array. */
  def proj(t: T, idx: Array[Int]): T = {
    val a = new Array[Any](idx.length)
    var i = 0
    while (i < idx.length) { a(i) = t(idx(i)); i += 1 }
    ArraySeq.unsafeWrapArray(a)
  }

  /** Compile the projection from tuples ordered by `from` onto `to`.
    * Every attribute of `to` must occur in `from`.
    */
  def projIdx(from: Seq[String], to: Seq[String]): Array[Int] = {
    val a = to.map { x =>
      val i = from.indexOf(x)
      require(i >= 0, s"attribute $x not in $from")
      i
    }
    a.toArray
  }
}
