package repro.baselines

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

import repro.core.MateSpark
import repro.corpus.CorpusGen.QueryTable
import repro.hash.SuperKeyHash

/** Multi-Column Retrieval baseline (§7.1.1): fetch the posting lists of
  * '''every''' query column, intersect the (table, row) sets, and verify
  * the intersection exactly. No super key is involved; the cost driver
  * is the per-column PL fetch volume the paper calls out in §7.2.
  */
object Mcr {

  final case class Result(topK: Seq[(Long, Long)], plItemsFetched: Long, metrics: MateSpark.Metrics)

  def run(
      spark: SparkSession,
      postingLists: DataFrame,
      rowVals: DataFrame,
      q: QueryTable,
      k: Int): Result = {
    import spark.implicits._

    val qSize  = q.qSize
    val tuples = q.tuples.map(_.map(SuperKeyHash.normalize))

    // One fetch per query column (the |Q| independent index queries the
    // running example in §3 wants to avoid), evaluated in one join: a
    // posting-list item per (value, query column) pair, counted per row.
    val colValues = tuples.flatMap(_.zipWithIndex).distinct.toDF("value", "qcol")
    val perRow = postingLists.join(broadcast(colValues), "value")
      .groupBy("tableId", "rowId", "qcol").count()
      .collect()
    val plItems = perRow.map(_.getLong(3)).sum

    // Rows containing a value of every query column (FP-laden superset
    // of the joinable rows — combinations may come from different rows
    // of the query table).
    val intersected = perRow.groupBy(r => (r.getLong(0), r.getLong(1))).iterator
      .collect { case (row, cols) if cols.length == qSize => row }
      .toSeq.toDF("tableId", "rowId")

    // Bind to query tuples via the init column (as MATE does) and verify.
    val cand = MateSpark.candidates(postingLists, MateSpark.prepareQuery(spark, q))
      .join(broadcast(intersected), Seq("tableId", "rowId"))
    val r = MateSpark.discover(cand, rowVals, None, k)
    Result(r.topK, plItems, r.metrics)
  }
}
