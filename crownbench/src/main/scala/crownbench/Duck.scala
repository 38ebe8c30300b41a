package crownbench

import java.sql.DriverManager
import org.duckdb.DuckDBConnection
import repro.core.{CQ, Tup, Upd}
import repro.core.Tup.T
import scala.collection.mutable

/** Independent reference for the correctness gate: DuckDB evaluates the
  * query over the tuples live at one stream index.
  */
object Duck {

  /** Tuples of each atom live after applying `updates(0 until upTo)`. */
  def live(updates: Array[Upd], upTo: Int): Map[String, mutable.Set[T]] = {
    val m = mutable.HashMap.empty[String, mutable.Set[T]]
    var i = 0
    while (i < upTo) {
      val u = updates(i)
      val s = m.getOrElseUpdate(u.rel, mutable.HashSet.empty[T])
      if (u.isInsert) s += u.t else s -= u.t
      i += 1
    }
    m.toMap
  }

  /** SQL for `cq` under set semantics. Each atom is first projected, with
    * DISTINCT, onto its output and join variables: a variable that occurs in
    * one atom only and is not output is existentially quantified there, so
    * dropping it early leaves the result unchanged and keeps DuckDB from
    * materializing the full join of a projection query.
    */
  def sql(cq: CQ): String = {
    val shared = cq.allVars.filter(v => cq.atoms.count(_.attrs.contains(v)) > 1).toSet
    val from = cq.atoms.map { a =>
      val cols = a.attrs.zipWithIndex.collect {
        case (v, i) if shared(v) || cq.output.contains(v) => s"c$i AS $v"
      }
      s"(SELECT DISTINCT ${cols.mkString(", ")} FROM ${a.name}) AS ${a.name}"
    }
    val joins = for {
      v <- cq.allVars
      occ = cq.atoms.filter(_.attrs.contains(v))
      (x, y) <- occ.zip(occ.drop(1))
    } yield s"${x.name}.$v = ${y.name}.$v"
    val select = cq.output.map(v => s"${cq.atoms.find(_.attrs.contains(v)).get.name}.$v").mkString(", ")
    val where = if (joins.isEmpty) "" else joins.mkString(" WHERE ", " AND ", "")
    s"SELECT DISTINCT $select FROM ${from.mkString(", ")}$where"
  }

  /** Result size and checksum of `cq` over `tables` (atom name -> tuples of
    * longs). The query's atom selections are applied while loading; the
    * joins and the projection are DuckDB's.
    */
  def result(cq: CQ, tables: Map[String, Iterable[T]]): (Long, Long) = {
    Class.forName("org.duckdb.DuckDBDriver")
    val conn = DriverManager.getConnection("jdbc:duckdb:").asInstanceOf[DuckDBConnection]
    try {
      val st = conn.createStatement()
      for (a <- cq.atoms) {
        st.execute(s"CREATE TABLE ${a.name} (${a.attrs.indices.map(i => s"c$i BIGINT").mkString(", ")})")
        val keep = cq.atomFilters.getOrElse(a.name, (_: T) => true)
        val app = conn.createAppender(DuckDBConnection.DEFAULT_SCHEMA, a.name)
        try {
          for (t <- tables.getOrElse(a.name, Nil) if keep(t)) {
            app.beginRow()
            t.foreach(v => app.append(v.asInstanceOf[java.lang.Long].longValue))
            app.endRow()
          }
        } finally app.close()
      }
      val rs = st.executeQuery(sql(cq))
      val k = cq.output.length
      var count = 0L
      var sum = 0L
      while (rs.next()) {
        val t: T = Tup((1 to k).map(i => rs.getLong(i)): _*)
        if (cq.resultFilter.forall(_(t))) { count += 1; sum += Checksum.of(t) }
      }
      (count, sum)
    } finally conn.close()
  }
}
