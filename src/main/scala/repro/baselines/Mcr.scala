package repro.baselines

import org.apache.spark.sql.DataFrame

import repro.core.{InitColumn, MateSpark}
import repro.corpus.CorpusGen.QueryTable
import repro.hash.SuperKeyHash

/** Multi-Column Retrieval baseline (§7.1.1): fetch the posting lists of
  * '''every''' query column, intersect the (table, row) sets, and verify
  * the intersection exactly. No super key is involved; the cost driver
  * is the per-column PL fetch volume the paper calls out in §7.2.
  */
object Mcr {

  final case class Result(topK: Seq[(Long, Long)], plItemsFetched: Long, metrics: MateSpark.Metrics)

  /** Two Spark jobs: the fetch and [[MateSpark.verifyItems]]'s pass. */
  def run(postingLists: DataFrame, rowVals: DataFrame, q: QueryTable, k: Int): Result = {
    // One fetch per query column (the |Q| independent index queries the
    // running example in §3 wants to avoid), evaluated in one pass.
    val perCol = fetchColumns(postingLists, q)

    // Rows containing a value of every query column (FP-laden superset
    // of the joinable rows — combinations may come from different rows
    // of the query table).
    val intersected = intersection(perCol.map(_.iterator.map { case (t, r, _, _) => (t, r) }.toSet))

    // Bind to query tuples via the init column (as MATE does) and verify.
    val initItems = initColumnItems(perCol, q).collect { case (t, r, _, v) if intersected((t, r)) => (t, r, v) }
    val r = MateSpark.verifyItems(rowVals, q, initItems, k)
    Result(r.topK, perCol.map(_.length.toLong).sum, r.metrics)
  }

  /** Every query column's posting-list items `(tableId, rowId, colId,
    * value)` in one pass over the posting lists: column `i`'s at `i`, a
    * posting-list item per (cell, query column) hit.
    */
  private[baselines] def fetchColumns(postingLists: DataFrame, q: QueryTable): IndexedSeq[Array[(Long, Long, Int, String)]] = {
    val tuples = q.tuples.map(_.map(SuperKeyHash.normalize))
    MateSpark.fetchValues(postingLists, (0 until q.qSize).map(i => tuples.map(_(i))))
  }

  /** The init column's items of [[fetchColumns]]; none for a query with no rows. */
  private[baselines] def initColumnItems(perCol: IndexedSeq[Array[(Long, Long, Int, String)]], q: QueryTable): Array[(Long, Long, Int, String)] =
    perCol.lift(InitColumn.byCardinality(q.rows)).getOrElse(Array.empty)

  /** The intersection of `sets`; empty for no sets. */
  private[baselines] def intersection[A](sets: Seq[Set[A]]): Set[A] = sets.reduceOption(_ intersect _).getOrElse(Set.empty)
}
