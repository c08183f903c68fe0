package repro.baselines

import org.apache.spark.sql.DataFrame

import repro.core.{InitColumn, MateSpark}
import repro.corpus.CorpusGen.QueryTable
import repro.hash.SuperKeyHash

/** JOSIE-style substrate (§7.1.1): top-k overlap set similarity search
  * over a (value → column) set index, used to build the SCR-Josie and
  * MCR-Josie baselines.
  *
  * JOSIE proper ranks columns by |Q ∩ column| with clever posting-list
  * cost models; since its index "is not sufficient for multi-column join
  * discovery" (§7.1), the paper backs both adaptations with the SCR
  * index for row verification — reproduced here by restricting the SCR
  * dataflow to Josie's candidate tables. Each adaptation is two Spark
  * jobs: one posting-list pass, whose items it both ranks on the driver
  * and verifies, and [[MateSpark.verifyItems]]'s pass.
  */
object JosieLite {

  /** `plItemsFetched` counts the posting-list items of the adaptation's
    * one pass: the init column's for SCR-Josie, the sum over the query
    * columns for MCR-Josie, as for [[Mcr]].
    */
  final case class Result(topK: Seq[(Long, Long)], plItemsFetched: Long, metrics: MateSpark.Metrics)

  /** The `n` tables ranked first by their best single-column overlap
    * with a query column, whose posting-list items `(tableId, rowId,
    * colId, value)` are `items`: a column's overlap is its number of
    * distinct values among them, a table's is its best column's, and
    * ties go to the lower `tableId`.
    */
  def topTablesByOverlap(items: collection.Seq[(Long, Long, Int, String)], n: Int): Seq[Long] =
    items.map { case (t, _, c, v) => (t, c, v) }.distinct
      .groupMapReduce { case (t, c, _) => (t, c) }(_ => 1)(_ + _)
      .groupMapReduce(_._1._1)(_._2)(_ max _)
      .toSeq.sortBy { case (t, overlap) => (-overlap, t) }
      .take(n).map(_._1)

  /** SCR-Josie: Josie ranks tables on the init column; SCR verifies
    * n-ary joinability inside those tables only.
    */
  def scrJosie(postingLists: DataFrame, rowVals: DataFrame, q: QueryTable, k: Int, candidateFactor: Int = 5): Result = {
    val initCol = InitColumn.byCardinality(q.rows)
    val values  = q.tuples.map(t => SuperKeyHash.normalize(t(initCol)))
    val items   = MateSpark.fetchValues(postingLists, Seq(values)).head
    restrictedScr(rowVals, q, k, items, topTablesByOverlap(items, candidateFactor * k).toSet, items.length.toLong)
  }

  /** MCR-Josie: Josie per query column, intersect the table sets, then
    * evaluate the surviving tables (§7.1.1).
    */
  def mcrJosie(postingLists: DataFrame, rowVals: DataFrame, q: QueryTable, k: Int, candidateFactor: Int = 5): Result = {
    val perCol = Mcr.fetchColumns(postingLists, q)
    val tables = Mcr.intersection(perCol.map(topTablesByOverlap(_, candidateFactor * k).toSet))
    restrictedScr(rowVals, q, k, Mcr.initColumnItems(perCol, q), tables, perCol.map(_.length.toLong).sum)
  }

  /** SCR inside `tables`: the init-column posting-list items of those
    * tables are verified by [[MateSpark.verifyItems]].
    */
  private def restrictedScr(
      rowVals: DataFrame,
      q: QueryTable,
      k: Int,
      initItems: Array[(Long, Long, Int, String)],
      tables: Set[Long],
      fetched: Long): Result = {
    val r = MateSpark.verifyItems(rowVals, q, initItems.collect { case (t, r, _, v) if tables(t) => (t, r, v) }, k)
    Result(r.topK, fetched, r.metrics)
  }
}
