package repro.baselines

import org.apache.spark.sql.{DataFrame, SparkSession}

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
  def run(
      spark: SparkSession,
      postingLists: DataFrame,
      rowVals: DataFrame,
      q: QueryTable,
      k: Int): Result = {
    val tuples = q.tuples.map(_.map(SuperKeyHash.normalize))

    // One fetch per query column (the |Q| independent index queries the
    // running example in §3 wants to avoid), evaluated in one pass: a
    // posting-list item per (cell, query column) hit.
    val perCol  = MateSpark.fetchValues(postingLists, (0 until q.qSize).map(i => tuples.map(_(i))))
    val plItems = perCol.map(_.length.toLong).sum

    // Rows containing a value of every query column (FP-laden superset
    // of the joinable rows — combinations may come from different rows
    // of the query table).
    val intersected = perCol.map(_.iterator.map { case (t, r, _) => (t, r) }.toSet).reduce(_ intersect _)

    // Bind to query tuples via the init column (as MATE does) and verify.
    val initItems = perCol(InitColumn.byCardinality(q.rows)).filter { case (t, r, _) => intersected((t, r)) }
    val r = MateSpark.verifyItems(rowVals, q, initItems, k)
    Result(r.topK, plItems, r.metrics)
  }
}
