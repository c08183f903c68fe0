package repro.baselines

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

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
  * dataflow to Josie's candidate tables.
  */
object JosieLite {

  final case class Result(topK: Seq[(Long, Long)], plItemsFetched: Long, metrics: MateSpark.Metrics)

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

  /** SCR-Josie: Josie ranks tables on the init column; SCR verifies
    * n-ary joinability inside those tables only.
    */
  def scrJosie(
      spark: SparkSession,
      postingLists: DataFrame,
      rowVals: DataFrame,
      q: QueryTable,
      k: Int,
      candidateFactor: Int = 5): Result = {
    val initCol = InitColumn.byCardinality(q.rows)
    val values  = q.tuples.map(t => SuperKeyHash.normalize(t(initCol)))
    val tables  = tableIds(topTablesByOverlap(postingLists, values, candidateFactor * k))
    restrictedScr(postingLists, rowVals, q, k, tables, values.size.toLong)
  }

  /** MCR-Josie: Josie per query column, intersect the table sets, then
    * evaluate the surviving tables (§7.1.1).
    */
  def mcrJosie(
      spark: SparkSession,
      postingLists: DataFrame,
      rowVals: DataFrame,
      q: QueryTable,
      k: Int,
      candidateFactor: Int = 5): Result = {
    val tuples = q.tuples.map(_.map(SuperKeyHash.normalize))
    val perCol = (0 until q.qSize).map { i =>
      tableIds(topTablesByOverlap(postingLists, tuples.map(_(i)), candidateFactor * k))
    }
    val tables = perCol.reduce(_ intersect _)
    restrictedScr(postingLists, rowVals, q, k, tables,
      tuples.flatten.distinct.size.toLong)
  }

  private def tableIds(tables: DataFrame): Set[Long] = tables.collect().map(_.getLong(0)).toSet

  /** SCR inside `tables`: the init-column posting-list items of those
    * tables are verified by [[MateSpark.verifyItems]].
    */
  private def restrictedScr(
      postingLists: DataFrame,
      rowVals: DataFrame,
      q: QueryTable,
      k: Int,
      tables: Set[Long],
      fetched: Long): Result = {
    val items = MateSpark.fetch(postingLists, q).filter { case (t, _, _) => tables(t) }
    val r = MateSpark.verifyItems(rowVals, q, items, k)
    Result(r.topK, fetched, r.metrics)
  }
}
