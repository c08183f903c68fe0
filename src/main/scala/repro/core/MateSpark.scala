package repro.core

import scala.collection.mutable.ArrayBuffer

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions._

import repro.corpus.CorpusGen.QueryTable
import repro.hash.SuperKeyHash
import repro.index.InvertedIndex
import repro.util.Bits

/** MATE's online discovery phase (§6) as a fetch plus one executor pass.
  *
  * The paper fetches the init-column posting lists once and then runs
  * one per-table loop: mask the rows, verify the survivors, keep the
  * top-k (Algorithm 1). A query here costs two Spark jobs:
  *
  *  1. '''fetch''' ([[fetch]]) — the init column is the one of minimum
  *     cardinality (§6.1); the posting-list items holding a tuple's init
  *     value are collected to the driver, as the paper fetches from
  *     Vertica, and paired with the tuples holding that value. The paper
  *     excludes this step from runtimes (§7.2), and so does [[run]].
  *  2. '''row filtering + calculateJ''', one job — the candidate tuple
  *     ids of each row reach the executors as a broadcast variable. With
  *     a hash, each row keeps the tuple ids whose query super key its own
  *     super key masks (`qsk ⊆ sk`, §6.3). The surviving rows are joined
  *     with their row-value maps; both sides are partitioned on
  *     `(tableId, rowId)`, so nothing shuffles.
  *     [[Joinability.rowMappings]] enumerates each surviving pair's
  *     column mappings on the executors, and one compact record per
  *     verified row comes back: table, pairs, cells, and the matching
  *     tuple ids with their mappings.
  *  3. '''top-k''', on the driver — the records fold into [[Metrics]]
  *     and, per table, into the best mapping's distinct-tuple count
  *     ([[Joinability.bestMappingCount]]); the k best under
  *     `(-j, tableId)` are returned.
  *
  * The sequential table-filter rules (Algorithm 1 lines 9/14) depend on
  * the scan order; the dataflow evaluates every candidate table, and the
  * faithful sequential rules live in [[MateLocal]].
  */
object MateSpark {

  /** Work + quality counters for one discovery run.
    *
    * `cellsCompared` is the deterministic cost proxy: the number of
    * cell values fetched into exact verification (what SCR pays for
    * every candidate row and MATE only for filter survivors).
    * TP/FP are at row granularity, matching the paper's FP-row
    * definition (§3); `precision = TP / (TP + FP)` is Table 3's metric.
    */
  final case class Metrics(
      candidatePairs: Long,   // fetched (row × tuple) pairs before any filter
      maskChecks: Long,       // super-key subset tests performed (0 for SCR)
      verifiedPairs: Long,    // pairs surviving the filter → exact verification
      rowsChecked: Long,      // distinct rows surviving the filter
      tpRows: Long,
      fpRows: Long,
      cellsCompared: Long,
      millis: Long) {
    def precision: Double =
      if (tpRows + fpRows == 0) 1.0 else tpRows.toDouble / (tpRows + fpRows)
  }

  final case class Result(topK: Seq[(Long, Long)], metrics: Metrics)

  /** Normalised key tuples of the query; a tuple's index is its `qTupleId`. */
  private def normTuples(q: QueryTable): Seq[Seq[String]] =
    q.tuples.map(_.map(SuperKeyHash.normalize))

  /** Distinct key tuples of the query with init-column binding values:
    * `(qTupleId, initValue, tuple)`.
    */
  def prepareQuery(spark: SparkSession, q: QueryTable): DataFrame = {
    import spark.implicits._
    val initCol = InitColumn.byCardinality(q.rows)
    normTuples(q).zipWithIndex
      .map { case (t, i) => (i, t(initCol), t) }
      .toDF("qTupleId", "initValue", "tuple")
  }

  /** Candidate (row × query-tuple) pairs from the init-column posting
    * lists as a join, the input of [[discover]]; the same pairs [[run]]
    * derives from [[fetch]]. One pair per corpus row containing the
    * tuple's init value in any column (the mapping is unknown, §2).
    */
  def candidates(postingLists: DataFrame, queryDf: DataFrame): DataFrame = {
    val q = broadcast(queryDf)
    postingLists.join(q, postingLists("value") === q("initValue"))
      .select("tableId", "rowId", "qTupleId", "tuple")
      .distinct()
  }

  /** Per-tuple query super keys `(qTupleId, qsk)` — the OR aggregation
    * of the hash of each key value (§6.1 line 6).
    */
  def querySuperKeys(spark: SparkSession, q: QueryTable, hash: SuperKeyHash): DataFrame = {
    import spark.implicits._
    normTuples(q).zipWithIndex
      .map { case (t, i) => (i, hash.superKey(t)) }
      .toDF("qTupleId", "qsk")
  }

  /** Run row filtering + verification + top-k on fetched candidates.
    *
    * @param cand     candidate pairs from [[candidates]], collected to
    *                 the driver here
    * @param rowVals  per-row value maps ([[InvertedIndex.rowValues]])
    * @param filter   `Some((rowSk, querySk))` for MATE with a hash;
    *                 `None` for the SCR baseline (exact checks only)
    * @param k        number of joinable tables to return
    */
  def discover(
      cand: DataFrame,
      rowVals: DataFrame,
      filter: Option[(DataFrame, DataFrame)],
      k: Int): Result = {
    val t0 = System.nanoTime()
    val fetched = cand.select("tableId", "rowId", "qTupleId", "tuple").collect()
    val tuples  = fetched.iterator.map(r => r.getInt(2) -> r.getSeq[String](3)).toMap
    val pairs   = fetched.map(r => (r.getLong(0), r.getLong(1), r.getInt(2))).distinct
    val masks   = filter.map { case (rowSk, querySk) =>
      (rowSk, querySk.select("qTupleId", "qsk").collect().map(r => r.getInt(0) -> r.getAs[Array[Byte]](1)).toMap)
    }
    verify(cand.sparkSession, pairs, tuples, rowVals, masks, k, t0)
  }

  /** The fetch phase: the distinct init-column posting-list items
    * `(tableId, rowId, initValue)` of `q`, in one Spark job that filters
    * the posting lists on the init values.
    */
  def fetch(postingLists: DataFrame, q: QueryTable): Array[(Long, Long, String)] = {
    val initCol = InitColumn.byCardinality(q.rows)
    postingLists.filter(col("value").isin(normTuples(q).map(_(initCol)).distinct: _*))
      .select("tableId", "rowId", "value").collect()
      .map(r => (r.getLong(0), r.getLong(1), r.getString(2))).distinct
  }

  /** End-to-end: fetch + filter + verify + top-k for one query table.
    * The driver pairs each fetched item with the tuples holding its
    * value. `millis` covers the steps after the fetch (§7.2).
    */
  def run(
      spark: SparkSession,
      postingLists: DataFrame,
      rowVals: DataFrame,
      rowSk: Option[DataFrame],
      hash: Option[SuperKeyHash],
      q: QueryTable,
      k: Int): Result = {
    val tuples  = normTuples(q)
    val initCol = InitColumn.byCardinality(q.rows)
    val byInit  = tuples.indices.groupBy(tuples(_)(initCol))
    val pairs   = fetch(postingLists, q).flatMap { case (t, r, v) => byInit(v).map((t, r, _)) }
    val t0 = System.nanoTime()
    val masks = for (sk <- rowSk; h <- hash) yield (sk, tuples.indices.map(i => i -> h.superKey(tuples(i))).toMap)
    verify(spark, pairs, tuples.indices.map(i => i -> tuples(i)).toMap, rowVals, masks, k, t0)
  }

  /** The executor pass over the distinct candidate `pairs`
    * `(tableId, rowId, qTupleId)`, then the driver-side fold. `masks`
    * holds the row super keys and each query tuple's super key.
    */
  private def verify(
      spark: SparkSession,
      pairs: Array[(Long, Long, Int)],
      tuples: Map[Int, Seq[String]],
      rowVals: DataFrame,
      masks: Option[(DataFrame, Map[Int, Array[Byte]])],
      k: Int,
      t0: Long): Result = {
    import spark.implicits._

    // The candidate tuple ids of each row and the query tuples reach the
    // executors as one broadcast variable: in the task binary they would
    // be deserialised once per task, and a broadcast join with a
    // driver-side relation costs a Spark job of its own.
    val bc = spark.sparkContext.broadcast(
      (pairs.groupBy(p => (p._1, p._2)).view.mapValues(_.map(_._3).toSeq).toMap, tuples))
    def ids(t: Long, r: Long): Seq[Int] = bc.value._1.getOrElse((t, r), Nil)

    val candRows = masks match {
      // Row filter: one subset test per candidate pair (§6.3's "single
      // operation"); a row keeps the tuple ids whose query key it masks.
      // The survivors and the row values are both partitioned on
      // (tableId, rowId), so their join does not shuffle; a hash join on
      // the few survivors spares sorting the row values.
      case Some((rowSk, qsk)) =>
        val mask = udf((t: Long, r: Long, sk: Array[Byte]) =>
          ids(t, r).filter(i => qsk.get(i).exists(Bits.subsetOf(_, sk))))
        val survivors = rowSk
          .select($"tableId", $"rowId", mask($"tableId", $"rowId", $"sk") as "qTupleIds")
          .filter(size($"qTupleIds") > 0)
        rowVals.join(survivors.hint("shuffle_hash"), Seq("tableId", "rowId"))
      case None =>
        val idsOf = udf((t: Long, r: Long) => ids(t, r))
        rowVals.withColumn("qTupleIds", idsOf($"tableId", $"rowId")).filter(size($"qTupleIds") > 0)
    }

    // Exact verification: the tuple ids a row matches, with their mappings.
    val mappings = udf((qTupleIds: Seq[Int], vals: Map[Int, String]) =>
      qTupleIds.map(i => (i, Joinability.rowMappings(bc.value._2(i), vals))).filter(_._2.nonEmpty))
    val records =
      try candRows
        .select($"tableId", size($"qTupleIds") as "pairs", size($"vals") as "cells",
          mappings($"qTupleIds", $"vals") as "hits")
        .collect()
      finally bc.destroy()

    var verifiedPairs, tpRows, cellsCompared = 0L
    val hitsByTable = scala.collection.mutable.Map.empty[Long, ArrayBuffer[(Int, Seq[String])]]
    for (r <- records) {
      val pairs = r.getInt(1).toLong
      val hits  = r.getSeq[Row](3)
      verifiedPairs += pairs
      cellsCompared += pairs * r.getInt(2)
      if (hits.nonEmpty) {
        tpRows += 1
        hitsByTable.getOrElseUpdate(r.getLong(0), ArrayBuffer.empty) ++= hits.map(h => (h.getInt(0), h.getSeq[String](1)))
      }
    }
    val topK = hitsByTable.iterator
      .map { case (t, hits) => (t, Joinability.bestMappingCount(hits)) }
      .toSeq.sortBy { case (t, j) => (-j, t) }
      .take(k)
    val millis = (System.nanoTime() - t0) / 1000000

    val rows = records.length.toLong
    Result(topK, Metrics(
      candidatePairs = pairs.length,
      maskChecks = if (masks.isDefined) pairs.length else 0L,
      verifiedPairs = verifiedPairs,
      rowsChecked = rows,
      tpRows = tpRows,
      fpRows = rows - tpRows,
      cellsCompared = cellsCompared,
      millis = millis))
  }
}
