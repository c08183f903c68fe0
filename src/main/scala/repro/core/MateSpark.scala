package repro.core

import scala.collection.mutable

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.functions.broadcast
import org.apache.spark.unsafe.types.UTF8String

import repro.corpus.CorpusGen.QueryTable
import repro.hash.SuperKeyHash
import repro.util.Bits

/** MATE's online discovery phase (§6) as passes over the rows of the
  * cached index relations.
  *
  * The paper fetches the init-column posting lists once and then runs
  * one per-table loop: mask the rows, verify the survivors, keep the
  * top-k (Algorithm 1). A query here builds and plans no DataFrame:
  * each step is one pass over the rows of the relations it reads, their
  * `queryExecution.toRdd`, a lazy val that Spark plans once per
  * relation. A pass finds the relations' columns by name; the rows are
  * reused buffers, so it copies out each value it keeps while it reads
  * the row. The candidate rows travel to the executors in the task
  * closure as flat arrays, and a pass runs at most one task per core.
  * MATE and SCR each cost two Spark jobs:
  *
  *  1. '''fetch''' ([[fetch]]), over the posting lists — the init column
  *     is the one of minimum cardinality (§6.1); the posting-list items
  *     holding a tuple's init value are collected to the driver, as the
  *     paper fetches from Vertica, and paired with the tuples holding
  *     that value. The paper excludes this step from runtimes (§7.2),
  *     and so does [[run]].
  *  2. '''row filtering and calculateJ''', one pass over the row super
  *     keys zipped partition by partition with the row values — each
  *     partition first keeps, of its candidate rows, the tuple ids whose
  *     query super key the row's super key masks (`qsk ⊆ sk`, §6.3);
  *     then it reads its row values and verifies the surviving rows it
  *     finds there: [[Joinability.forEachMapping]] enumerates their
  *     pairs' column mappings on the row map's key and value arrays.
  *     One compact record per verified row comes back: table, pairs,
  *     cells, and flat arrays of the matching tuple ids with their
  *     packed mappings. SCR has no filter: its pass reads the row values alone
  *     and verifies every candidate row. The survivors a partition does
  *     not find among its row values (''unseen survivors'') come back
  *     too, and SCR's pass verifies them. The relations
  *     [[repro.index.InvertedIndex]] builds hash-aggregate on
  *     `(tableId, rowId)` and keep that partitioning when cached, so for
  *     them there are none and no third job runs. Their plans cannot
  *     show this in advance; for any other relations (uncached,
  *     repartitioned, or with a different partition count, when each
  *     super-key partition is paired with no values) the third job keeps
  *     the result exact, and each survivor is verified once.
  *  3. '''top-k''', on the driver — the records fold into [[Metrics]]
  *     and, per table, into a [[Joinability.TableScore]], the best
  *     mapping's distinct-tuple count; the k best under
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
    * @param rowVals  per-row value maps ([[repro.index.InvertedIndex.rowValues]])
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
    val qIds    = tuples.keys.toArray // tuple i below is the one with qTupleId qIds(i)
    val at      = qIds.zipWithIndex.toMap
    val pairs   = fetched.map(r => (r.getLong(0), r.getLong(1), at(r.getInt(2)))).distinct
    val masks   = filter.map { case (rowSk, querySk) =>
      val qsk = querySk.select("qTupleId", "qsk").collect().map(r => r.getInt(0) -> r.getAs[Array[Byte]](1)).toMap
      (rowSk, qIds.map(qsk))
    }
    verify(pairs, qIds.map(tuples(_).toArray), rowVals, masks, k, t0)
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
    val masks = for (sk <- rowSk; h <- hash) yield (sk, tuples.map(h.superKey).toArray)
    verify(pairs, tuples.map(_.toArray).toArray, rowVals, masks, k, t0)
  }

  /** Candidate or surviving rows as flat arrays: row `i` is
    * `(tables(i), rows(i))`, with the query tuple ids
    * `ids(offsets(i) until offsets(i + 1))`. Arrays of primitives are
    * cheap to serialise into a task; each task builds the [[index]] once.
    */
  private final case class Rows(tables: Array[Long], rows: Array[Long], offsets: Array[Int], ids: Array[Int]) {
    def idsOf(i: Int): Array[Int] = ids.slice(offsets(i), offsets(i + 1))

    def index: mutable.HashMap[(Long, Long), Int] = {
      val m = new mutable.HashMap[(Long, Long), Int](tables.length, mutable.HashMap.defaultLoadFactor)
      for (i <- tables.indices) m((tables(i), rows(i))) = i
      m
    }
  }

  private object Rows {
    def apply(byRow: IterableOnce[((Long, Long), Array[Int])]): Rows = {
      val all = byRow.iterator.toArray
      Rows(all.map(_._1._1), all.map(_._1._2), all.map(_._2.length).scanLeft(0)(_ + _), all.flatMap(_._2))
    }
  }

  /** One verified row: table, pairs, cells, and per match the tuple id
    * and its packed mapping (`ids(i)` under `mappings(i)`).
    */
  private type Record = (Long, Int, Int, Array[Int], Array[Long])

  private def fieldIndices(df: DataFrame, names: String*): Seq[Int] = names.map(df.schema.fieldIndex)

  /** `rdd` in at most one partition per core: a task's start-up, not its
    * rows, sets the cost of a pass.
    */
  private def perCore[A](rdd: RDD[A]): RDD[A] = {
    val cores = rdd.sparkContext.defaultParallelism
    if (rdd.getNumPartitions > cores) rdd.coalesce(cores) else rdd
  }

  /** Exact verification of one row holding the query tuples `ids`: the
    * key and value arrays of its value map (column `v` of `row`) are
    * read and its pairs' mappings enumerated.
    */
  private def verifyRow(table: Long, row: InternalRow, v: Int, ids: Array[Int], tuples: Array[Array[String]]): Record = {
    val m    = row.getMap(v)
    val cols = m.keyArray().toIntArray()
    val vals = Array.tabulate(cols.length)(m.valueArray().getUTF8String(_).toString)
    val (hitIds, hitMappings) = (Array.newBuilder[Int], Array.newBuilder[Long])
    for (i <- ids) Joinability.forEachMapping(tuples(i), cols, vals) { mapping => hitIds += i; hitMappings += mapping }
    (table, ids.length, cols.length, hitIds.result(), hitMappings.result())
  }

  /** Exact verification: one pass over the row values. Only the rows in
    * `cand` have their value maps read.
    */
  private def verifyRows(rowVals: DataFrame, cand: Rows, tuples: Array[Array[String]]): Array[Record] = {
    val Seq(t, r, v) = fieldIndices(rowVals, "tableId", "rowId", "vals")
    perCore(rowVals.queryExecution.toRdd.mapPartitions { rows =>
      val at = cand.index
      rows.flatMap { row =>
        val table = row.getLong(t)
        at.get((table, row.getLong(r))).map(i => verifyRow(table, row, v, cand.idsOf(i), tuples))
      }
    }).collect()
  }

  /** Row filter and verification: one pass over the row super keys
    * zipped with the row values. A partition drains its super keys
    * first: a candidate row keeps the tuple ids whose query super key
    * its own masks, one subset test per candidate pair (§6.3's "single
    * operation"). Then it verifies the surviving rows it finds among
    * its row values. Returns the records and the unseen survivors.
    */
  private def filterAndVerify(
      rowSk: DataFrame,
      rowVals: DataFrame,
      cand: Rows,
      qsk: Array[Array[Byte]],
      tuples: Array[Array[String]]): (Array[Record], Rows) = {
    val Seq(st, sr, s) = fieldIndices(rowSk, "tableId", "rowId", "sk")
    val Seq(vt, vr, v) = fieldIndices(rowVals, "tableId", "rowId", "vals")
    def pass(sks: Iterator[InternalRow], vals: Iterator[InternalRow]): Iterator[(Array[Record], Array[((Long, Long), Array[Int])])] = {
      val at   = cand.index
      val kept = mutable.HashMap.empty[(Long, Long), Array[Int]]
      for (row <- sks) {
        val key = (row.getLong(st), row.getLong(sr))
        for (i <- at.get(key)) {
          val sk  = row.getBinary(s)
          val ids = cand.idsOf(i).filter(id => Bits.subsetOf(qsk(id), sk))
          if (ids.nonEmpty) kept(key) = ids
        }
      }
      val records = vals.flatMap { row =>
        val key = (row.getLong(vt), row.getLong(vr))
        kept.remove(key).map(verifyRow(key._1, row, v, _, tuples))
      }.toArray
      Iterator.single((records, kept.toArray))
    }
    val (sks, vals) = (rowSk.queryExecution.toRdd, rowVals.queryExecution.toRdd)
    val zipped =
      if (sks.getNumPartitions == vals.getNumPartitions) sks.zipPartitions(vals)(pass)
      else sks.mapPartitions(pass(_, Iterator.empty))
    val parts = perCore(zipped).collect()
    (parts.flatMap(_._1), Rows(parts.iterator.flatMap(_._2)))
  }

  /** Row filter, verification and the driver-side fold of the distinct
    * candidate `pairs` `(tableId, rowId, i)` of the query `tuples`, `i`
    * indexing `tuples`. `masks` holds the row super keys and each query
    * tuple's super key.
    */
  private def verify(
      pairs: Array[(Long, Long, Int)],
      tuples: Array[Array[String]],
      rowVals: DataFrame,
      masks: Option[(DataFrame, Array[Array[Byte]])],
      k: Int,
      t0: Long): Result = {
    val cand    = Rows(pairs.groupMap(p => (p._1, p._2))(_._3))
    val records = masks match {
      case None => verifyRows(rowVals, cand, tuples)
      case Some((rowSk, qsk)) =>
        val (seen, unseen) = filterAndVerify(rowSk, rowVals, cand, qsk, tuples)
        if (unseen.tables.isEmpty) seen else seen ++ verifyRows(rowVals, unseen, tuples)
    }

    var verifiedPairs, tpRows, cellsCompared = 0L
    val scores = mutable.LongMap.empty[Joinability.TableScore]
    for ((table, pairs, cells, ids, mappings) <- records) {
      verifiedPairs += pairs
      cellsCompared += pairs.toLong * cells
      if (ids.nonEmpty) tpRows += 1
      for (i <- ids.indices) scores.getOrElseUpdate(table, new Joinability.TableScore).add(ids(i), mappings(i))
    }
    val topK = scores.iterator
      .map { case (t, score) => (t, score.j) }
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
