package repro.core

import scala.collection.mutable.ArrayBuffer
import scala.reflect.ClassTag

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.broadcast
import org.apache.spark.unsafe.types.UTF8String

import repro.corpus.CorpusGen.QueryTable
import repro.hash.SuperKeyHash
import repro.index.InvertedIndex
import repro.util.Bits

/** MATE's online discovery phase (§6) as passes over the rows of the
  * cached index relations.
  *
  * The paper fetches the init-column posting lists once and then runs
  * one per-table loop: mask the rows, verify the survivors, keep the
  * top-k (Algorithm 1). A query here builds and plans no DataFrame:
  * each step is one pass over the rows of the relation it reads, its
  * `queryExecution.toRdd`, a lazy val that Spark plans once per
  * relation. A pass finds the relation's columns by name; the rows are
  * reused buffers, so it copies out each value it keeps while it reads
  * the row. MATE costs three Spark jobs, SCR two:
  *
  *  1. '''fetch''' ([[fetch]]), over the posting lists — the init column
  *     is the one of minimum cardinality (§6.1); the posting-list items
  *     holding a tuple's init value are collected to the driver, as the
  *     paper fetches from Vertica, and paired with the tuples holding
  *     that value. The paper excludes this step from runtimes (§7.2),
  *     and so does [[run]].
  *  2. '''row filtering''', over the row super keys (MATE only) — the
  *     candidate tuple ids of each row reach the executors as a
  *     broadcast variable; each candidate row keeps the tuple ids whose
  *     query super key its own super key masks (`qsk ⊆ sk`, §6.3), and
  *     only the surviving rows come back.
  *  3. '''calculateJ''', over the row values — only the surviving rows
  *     (every candidate row for SCR) have their values read, and
  *     [[Joinability.rowMappings]] enumerates their pairs' column
  *     mappings. One compact record per verified row comes back: table,
  *     pairs, cells, and the matching tuple ids with their mappings.
  *  4. '''top-k''', on the driver — the records fold into [[Metrics]]
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
    * `(tableId, rowId, initValue)` of `q`, in one pass over the posting
    * lists that keeps the items holding an init value.
    */
  def fetch(postingLists: DataFrame, q: QueryTable): Array[(Long, Long, String)] = {
    val initCol = InitColumn.byCardinality(q.rows)
    val wanted  = normTuples(q).map(t => UTF8String.fromString(t(initCol))).toSet
    val Seq(v, t, r) = fieldIndices(postingLists, "value", "tableId", "rowId")
    postingLists.queryExecution.toRdd
      .mapPartitions(_.collect { case row if wanted(row.getUTF8String(v)) =>
        (row.getLong(t), row.getLong(r), row.getUTF8String(v).toString) })
      .collect().distinct
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

  /** Candidate or surviving rows: `(tableId, rowId) → qTupleIds`. */
  private type RowIds = Map[(Long, Long), Seq[Int]]

  private def fieldIndices(df: DataFrame, names: String*): Seq[Int] = names.map(df.schema.fieldIndex)

  /** `f` with `value` broadcast to the executors, destroyed afterwards.
    * A broadcast variable is deserialised once per executor; in the task
    * binary it would be deserialised once per task.
    */
  private def withBroadcast[V: ClassTag, A](spark: SparkSession, value: V)(f: Broadcast[V] => A): A = {
    val bc = spark.sparkContext.broadcast(value)
    try f(bc) finally bc.destroy()
  }

  /** Row filter: one pass over the row super keys. A candidate row keeps
    * the tuple ids whose query super key its own masks, one subset test
    * per candidate pair (§6.3's "single operation").
    */
  private def filterRows(spark: SparkSession, rowSk: DataFrame, cand: RowIds, qsk: Map[Int, Array[Byte]]): RowIds =
    withBroadcast(spark, cand) { bc =>
      val Seq(t, r, s) = fieldIndices(rowSk, "tableId", "rowId", "sk")
      rowSk.queryExecution.toRdd.mapPartitions { rows =>
        val idsOf = bc.value
        rows.flatMap { row =>
          val key = (row.getLong(t), row.getLong(r))
          idsOf.get(key).flatMap { ids =>
            val sk   = row.getBinary(s)
            val kept = ids.filter(i => Bits.subsetOf(qsk(i), sk))
            if (kept.isEmpty) None else Some(key -> kept)
          }
        }
      }.collect().toMap
    }

  /** Exact verification: one pass over the row values. Only the rows in
    * `ids` have their value maps read and their pairs' mappings
    * enumerated. One record per verified row: table, pairs, cells, and
    * the tuple ids the row matches with their mappings.
    */
  private def verifyRows(
      spark: SparkSession,
      rowVals: DataFrame,
      ids: RowIds,
      tuples: Map[Int, Seq[String]]): Array[(Long, Int, Int, Seq[(Int, Seq[String])])] =
    withBroadcast(spark, (ids, tuples)) { bc =>
      val Seq(t, r, v) = fieldIndices(rowVals, "tableId", "rowId", "vals")
      rowVals.queryExecution.toRdd.mapPartitions { rows =>
        val (idsOf, tupleOf) = bc.value
        rows.flatMap { row =>
          val table = row.getLong(t)
          idsOf.get((table, row.getLong(r))).map { qTupleIds =>
            val m = row.getMap(v)
            val (cols, values) = (m.keyArray(), m.valueArray())
            val vals = (0 until m.numElements()).map(i => cols.getInt(i) -> values.getUTF8String(i).toString).toMap
            val hits = qTupleIds.map(i => (i, Joinability.rowMappings(tupleOf(i), vals))).filter(_._2.nonEmpty)
            (table, qTupleIds.length, m.numElements(), hits)
          }
        }
      }.collect()
    }

  /** Row filter and verification of the distinct candidate `pairs`
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
    val cand: RowIds = pairs.groupBy(p => (p._1, p._2)).view.mapValues(_.map(_._3).toSeq).toMap
    val survivors = masks.fold(cand) { case (rowSk, qsk) => filterRows(spark, rowSk, cand, qsk) }
    val records   = verifyRows(spark, rowVals, survivors, tuples)

    var verifiedPairs, tpRows, cellsCompared = 0L
    val hitsByTable = scala.collection.mutable.Map.empty[Long, ArrayBuffer[(Int, Seq[String])]]
    for ((table, pairs, cells, hits) <- records) {
      verifiedPairs += pairs
      cellsCompared += pairs.toLong * cells
      if (hits.nonEmpty) {
        tpRows += 1
        hitsByTable.getOrElseUpdate(table, ArrayBuffer.empty) ++= hits
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
