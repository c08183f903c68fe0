package repro.baselines

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

import repro.core.{InitColumn, MateSpark}
import repro.corpus.CorpusGen.QueryTable
import repro.hash.SuperKeyHash

/** The baselines as DataFrame plans, the reference [[Mcr]] and
  * [[JosieLite]] are compared with: MCR's per-column posting-list join
  * and `groupBy` intersection, the Josie ranking as a `distinct`, a
  * join, two `groupBy`s and an `orderBy` ([[topTablesByOverlap]]), and
  * both Josie adaptations' join of the candidate pairs with the ranked
  * tables, each verified by [[MateSpark.discover]] on
  * [[MateSpark.candidates]].
  */
object DataFrameBaselines {

  def mcr(spark: SparkSession, postingLists: DataFrame, rowVals: DataFrame, q: QueryTable, k: Int): Mcr.Result = {
    import spark.implicits._
    val tuples = q.tuples.map(_.map(SuperKeyHash.normalize))
    // a posting-list item per (value, query column) pair, counted per row
    val colValues = tuples.flatMap(_.zipWithIndex).distinct.toDF("value", "qcol")
    val perRow = postingLists.join(broadcast(colValues), "value")
      .groupBy("tableId", "rowId", "qcol").count()
      .collect()
    val plItems = perRow.map(_.getLong(3)).sum
    // rows containing a value of every query column
    val intersected = perRow.groupBy(r => (r.getLong(0), r.getLong(1))).iterator
      .collect { case (row, cols) if cols.length == q.qSize => row }
      .toSeq.toDF("tableId", "rowId")
    val cand = MateSpark.candidates(postingLists, MateSpark.prepareQuery(spark, q))
      .join(broadcast(intersected), Seq("tableId", "rowId"))
    val r = MateSpark.discover(cand, rowVals, None, k)
    Mcr.Result(r.topK, plItems, r.metrics)
  }

  /** Tables ranked by the best single-column overlap with `values`. */
  def topTablesByOverlap(
      postingLists: DataFrame,
      values: Seq[String],
      n: Int): DataFrame = {
    val spark = postingLists.sparkSession
    import spark.implicits._
    val vdf = values.distinct.toDF("value")
    postingLists.select($"value", $"tableId", $"colId").distinct()
      .join(vdf, "value")
      .groupBy($"tableId", $"colId").agg(count(lit(1)) as "overlap")
      .groupBy($"tableId").agg(max($"overlap") as "overlap")
      .orderBy(desc("overlap"), asc("tableId"))
      .limit(n)
      .select("tableId")
  }

  def scrJosie(spark: SparkSession, postingLists: DataFrame, rowVals: DataFrame, q: QueryTable, k: Int,
               candidateFactor: Int = 5): JosieLite.Result = {
    val initCol = InitColumn.byCardinality(q.rows)
    val values  = q.tuples.map(t => SuperKeyHash.normalize(t(initCol)))
    val tables  = topTablesByOverlap(postingLists, values, candidateFactor * k)
    restrictedScr(spark, postingLists, rowVals, q, k, tables, plItems(spark, postingLists, Seq(values)))
  }

  def mcrJosie(spark: SparkSession, postingLists: DataFrame, rowVals: DataFrame, q: QueryTable, k: Int,
               candidateFactor: Int = 5): JosieLite.Result = {
    val tuples = q.tuples.map(_.map(SuperKeyHash.normalize))
    val columns = (0 until q.qSize).map(i => tuples.map(_(i)))
    val perCol  = columns.map(topTablesByOverlap(postingLists, _, candidateFactor * k))
    restrictedScr(spark, postingLists, rowVals, q, k, perCol.reduce(_.intersect(_)), plItems(spark, postingLists, columns))
  }

  /** The posting-list items holding a value of each of `valueSets`,
    * summed over the sets: the rows of each set's join with the posting
    * lists.
    */
  private def plItems(spark: SparkSession, postingLists: DataFrame, valueSets: Seq[Seq[String]]): Long = {
    import spark.implicits._
    valueSets.map(vs => postingLists.join(vs.distinct.toDF("value"), "value").count()).sum
  }

  private def restrictedScr(spark: SparkSession, postingLists: DataFrame, rowVals: DataFrame, q: QueryTable, k: Int,
                            tables: DataFrame, fetched: Long): JosieLite.Result = {
    val cand = MateSpark.candidates(postingLists, MateSpark.prepareQuery(spark, q)).join(tables, Seq("tableId"))
    val r = MateSpark.discover(cand, rowVals, None, k)
    JosieLite.Result(r.topK, fetched, r.metrics)
  }
}
