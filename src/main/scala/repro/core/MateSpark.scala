package repro.core

import java.nio.charset.StandardCharsets.UTF_8

import scala.collection.mutable

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.catalyst.util.{ArrayData, MapData}
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
  * the row. What a pass looks up travels to the executors in the task
  * closure as flat arrays, and a pass runs at most one task per core.
  * [[run]] costs MATE and SCR one Spark job each:
  *
  *  1. '''the verification pass''' ([[verifyPass]], the only pass that
  *     verifies), over the row values. A row's candidate tuples come from
  *     one of two sources. [[run]] looks the row's values up, as the row
  *     map's own bytes, in a map of the query's init values: the init
  *     column is the one of minimum cardinality (§6.1), and a row's value
  *     map holds every normalised cell of the row, so its init-column
  *     posting-list items are exactly its values among the init values.
  *     Every other caller looks the row's `(tableId, rowId)` up among the
  *     candidate rows it found itself. With a hash, a candidate tuple is
  *     kept only if the row's super key masks its query super key
  *     (`qsk ⊆ sk`, §6.3). The pass reads the row super keys in lockstep
  *     with the row values, one key row per value row: a row's super key
  *     is the aligned key row's when their `(tableId, rowId)` match, as
  *     they do for keys built on the cached row values
  *     ([[repro.index.InvertedIndex.rowSuperKeys]]), and otherwise
  *     `hash.superKey` of the row's own values, computed in the task,
  *     which gives the same bits. The survivors are verified in place:
  *     [[Joinability.forEachMapping]] enumerates their column mappings on
  *     the row map's key and value arrays. One compact record per
  *     verified row comes back: table, pairs, cells, and flat arrays of
  *     the matching tuple ids with their packed mappings. SCR has no
  *     filter: its pass reads the row values alone and verifies every
  *     candidate row.
  *  2. '''top-k''', on the driver — the records fold into [[Metrics]]
  *     and, per table, into a [[Joinability.TableScore]], the best
  *     mapping's distinct-tuple count; the k best under
  *     `(-j, tableId)` are returned.
  *
  * [[discover]] is an adapter over steps 1–2 for candidate pairs found
  * as a DataFrame ([[candidates]]); the benchmark's traced path calls
  * it. It has no hash, so one pass over the row super keys alone fetches
  * its candidate rows' keys, the driver masks them, and step 1 verifies
  * the survivors unmasked. The baselines select init-column posting-list
  * items their own way and hand them to [[verifyItems]]: steps 1 and 2,
  * unmasked.
  * [[fetch]] and [[fetchAll]] return the init-column posting-list items
  * themselves, the input of the sequential Algorithm 1 ([[MateLocal]]).
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
    * finds in its pass. One pair per corpus row containing the tuple's
    * init value in any column (the mapping is unknown, §2).
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

  /** Row filtering + verification + top-k of fetched candidates: the
    * candidate pairs are collected to the driver; with a filter, one
    * pass over the row super keys fetches their rows' keys and the
    * driver masks them. The survivors are verified as [[run]] verifies
    * its own.
    *
    * @param cand     candidate pairs from [[candidates]]
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
    val t0      = System.nanoTime()
    val fetched = cand.select("tableId", "rowId", "qTupleId", "tuple").collect()
    val tuples  = fetched.iterator.map(r => r.getInt(2) -> r.getSeq[String](3)).toMap
    val qIds    = tuples.keys.toArray // tuple i below is the one with qTupleId qIds(i)
    val at      = qIds.zipWithIndex.toMap
    val cands   = Rows.ofPairs(fetched.map(r => (r.getLong(0), r.getLong(1), at(r.getInt(2)))))
    val kept    = filter.fold(cands) { case (rowSk, querySk) =>
      val qskOf = querySk.select("qTupleId", "qsk").collect().map(q => q.getInt(0) -> q.getAs[Array[Byte]](1)).toMap
      val qsk   = qIds.map(qskOf)
      val Seq(t, r, s) = fieldIndices(rowSk, "tableId", "rowId", "sk")
      val sks = perCore(rowSk.queryExecution.toRdd.mapPartitions { rows =>
        val at = cands.index
        rows.flatMap(row => at.get((row.getLong(t), row.getLong(r))).map(_ -> row.getBinary(s)))
      }).collect()
      Rows(sks.iterator.map { case (i, sk) =>
        (cands.tables(i), cands.rows(i)) -> cands.idsOf(i).filter(id => Bits.subsetOf(qsk(id), sk))
      }.filter(_._2.nonEmpty))
    }
    val (records, _) = verifyPass(rowVals, None, kept, qIds.map(tuples(_).toArray))
    result(records, cands.ids.length, filter.isDefined, k, t0)
  }

  /** The normalised init-column values of `q`'s tuples, tuple `i`'s at `i`. */
  private def initValues(q: QueryTable): Seq[String] = {
    val initCol = InitColumn.byCardinality(q.rows)
    normTuples(q).map(_(initCol))
  }

  /** The fetch phase: the distinct init-column posting-list items
    * `(tableId, rowId, initValue)` of `q`, in posting-list order.
    */
  def fetch(postingLists: DataFrame, q: QueryTable): Array[(Long, Long, String)] =
    fetchAll(postingLists, Seq(q)).head

  /** [[fetch]] for many queries in one pass over the posting lists:
    * query `i`'s items are at `i`.
    */
  def fetchAll(postingLists: DataFrame, queries: Seq[QueryTable]): IndexedSeq[Array[(Long, Long, String)]] =
    fetchValues(postingLists, queries.map(initValues)).map(_.map { case (t, r, _, v) => (t, r, v) }.distinct)

  /** The posting-list items `(tableId, rowId, colId, value)` holding a
    * value of each of `valueSets` in one pass over the posting lists,
    * which keeps the items holding any set's value: set `i`'s items are
    * at `i`, one per cell that holds one of its values, in posting-list
    * order.
    */
  def fetchValues(postingLists: DataFrame, valueSets: Seq[Seq[String]]): IndexedSeq[Array[(Long, Long, Int, String)]] = {
    val wanted = ValueIds(valueSets.zipWithIndex.flatMap { case (vs, i) => vs.distinct.map(_ -> i) })
    val Seq(v, t, c, r) = fieldIndices(postingLists, "value", "tableId", "colId", "rowId")
    val items = postingLists.queryExecution.toRdd.mapPartitions { rows =>
      val at = wanted.index
      rows.flatMap { row =>
        val x = at.getOrElse(row.getUTF8String(v), -1)
        if (x < 0) None else Some((row.getLong(t), row.getLong(r), row.getInt(c), x))
      }
    }.collect()
    val values = wanted.values.map(new String(_, UTF_8))
    val bySet  = IndexedSeq.fill(valueSets.size)(Array.newBuilder[(Long, Long, Int, String)])
    for ((table, row, col, x) <- items; i <- wanted.idsOf(x)) bySet(i) += ((table, row, col, values(x)))
    bySet.map(_.result())
  }

  /** End-to-end: candidates + filter + verify + top-k for one query
    * table, one Spark job over the row relations (see above). `millis`
    * covers all of it, finding the candidates included; the paper's
    * runtimes exclude its fetch (§7.2), so [[MateLocal]]'s remain the
    * paper-comparable ones.
    *
    * `spark` and `postingLists` are not read: the row values hold every
    * posting-list item the query needs.
    */
  def run(
      spark: SparkSession,
      postingLists: DataFrame,
      rowVals: DataFrame,
      rowSk: Option[DataFrame],
      hash: Option[SuperKeyHash],
      q: QueryTable,
      k: Int): Result = {
    val t0     = System.nanoTime()
    val tuples = normTuples(q)
    val mask   = for (sk <- rowSk; h <- hash) yield Mask(sk, h, tuples.map(h.superKey).toArray)
    val (records, candidatePairs) = verifyPass(rowVals, mask, ValueIds(initValues(q).zipWithIndex), tuples.map(_.toArray).toArray)
    result(records, candidatePairs, mask.isDefined, k, t0)
  }

  /** SCR's verification and top-k of `items`, init-column posting-list
    * items `(tableId, rowId, initValue)` of `q` that a baseline selected:
    * each binds to the tuples whose init value it holds.
    */
  def verifyItems(rowVals: DataFrame, q: QueryTable, items: collection.Seq[(Long, Long, String)], k: Int): Result = {
    val t0     = System.nanoTime()
    val idsOf  = initValues(q).zipWithIndex.groupMap(_._1)(_._2)
    val cands  = Rows.ofPairs(items.flatMap { case (t, r, v) => idsOf.getOrElse(v, Nil).map((t, r, _)) })
    val (records, candidatePairs) = verifyPass(rowVals, None, cands, normTuples(q).map(_.toArray).toArray)
    result(records, candidatePairs, masked = false, k, t0)
  }

  /** Where [[verifyPass]] takes a row's candidate tuple ids from. */
  private sealed trait Candidates {
    /** Built once per task: the candidate tuple ids of the row `row`,
      * whose table and row ids are its fields `t` and `r` and whose value
      * map is `m`.
      */
    def finder(t: Int, r: Int): (InternalRow, MapData) => Array[Int]
  }

  /** Candidate or surviving rows as flat arrays: row `i` is
    * `(tables(i), rows(i))`, with the query tuple ids
    * `ids(offsets(i) until offsets(i + 1))`. Arrays of primitives are
    * cheap to serialise into a task; each task builds the [[index]] once.
    */
  private final case class Rows(tables: Array[Long], rows: Array[Long], offsets: Array[Int], ids: Array[Int])
      extends Candidates {
    def idsOf(i: Int): Array[Int] = ids.slice(offsets(i), offsets(i + 1))

    def index: mutable.HashMap[(Long, Long), Int] = {
      val m = new mutable.HashMap[(Long, Long), Int](tables.length, mutable.HashMap.defaultLoadFactor)
      for (i <- tables.indices) m((tables(i), rows(i))) = i
      m
    }

    def finder(t: Int, r: Int): (InternalRow, MapData) => Array[Int] = {
      val at = index
      (row, _) => at.get((row.getLong(t), row.getLong(r))).fold(Array.emptyIntArray)(idsOf)
    }
  }

  private object Rows {
    def apply(byRow: IterableOnce[((Long, Long), Array[Int])]): Rows = {
      val all = byRow.iterator.toArray
      Rows(all.map(_._1._1), all.map(_._1._2), all.map(_._2.length).scanLeft(0)(_ + _), all.flatMap(_._2))
    }

    /** The rows of the distinct `(tableId, rowId, tuple id)` pairs. */
    def ofPairs(pairs: collection.Seq[(Long, Long, Int)]): Rows =
      Rows(pairs.distinct.groupMap(p => (p._1, p._2))(_._3).iterator.map { case (row, ids) => row -> ids.toArray })
  }

  /** Distinct values with the ids that hold them, as flat arrays: value
    * `i` is the UTF-8 string `values(i)`, held by
    * `ids(offsets(i) until offsets(i + 1))`. Each task builds the
    * [[index]] once and looks the row values up in it as they are
    * stored, without decoding them.
    */
  private final case class ValueIds(values: Array[Array[Byte]], offsets: Array[Int], ids: Array[Int])
      extends Candidates {
    def idsOf(i: Int): Array[Int] = ids.slice(offsets(i), offsets(i + 1))

    def index: mutable.HashMap[UTF8String, Int] = {
      val m = new mutable.HashMap[UTF8String, Int](values.length, mutable.HashMap.defaultLoadFactor)
      for (i <- values.indices) m(UTF8String.fromBytes(values(i))) = i
      m
    }

    /** A row's candidate tuples are the ids held by the distinct values of its map. */
    def finder(t: Int, r: Int): (InternalRow, MapData) => Array[Int] = {
      val at = index
      (_, m) => idsOfValues(m.valueArray(), at)
    }

    /** The ids held by the distinct values of `vals`; `at` is [[index]]. */
    private def idsOfValues(vals: ArrayData, at: mutable.HashMap[UTF8String, Int]): Array[Int] = {
      var hits = List.empty[Int]
      var c    = 0
      while (c < vals.numElements()) {
        val x = at.getOrElse(vals.getUTF8String(c), -1)
        if (x >= 0 && !hits.contains(x)) hits = x :: hits
        c += 1
      }
      if (hits.isEmpty) Array.emptyIntArray else hits.toArray.flatMap(idsOf)
    }
  }

  private object ValueIds {
    def apply(valueIds: Seq[(String, Int)]): ValueIds = {
      val all = valueIds.groupMap(_._1)(_._2).toArray
      ValueIds(all.map(_._1.getBytes(UTF_8)), all.map(_._2.length).scanLeft(0)(_ + _), all.flatMap(_._2))
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

  /** Exact verification of the row `table` with the value map `m`,
    * holding the query tuples `ids`: the map's key and value arrays are
    * read and its pairs' mappings enumerated.
    */
  private def verifyRow(table: Long, m: MapData, ids: Array[Int], tuples: Array[Array[String]]): Record = {
    val cols = m.keyArray().toIntArray()
    val vals = Array.tabulate(cols.length)(m.valueArray().getUTF8String(_).toString)
    val (hitIds, hitMappings) = (Array.newBuilder[Int], Array.newBuilder[Long])
    for (i <- ids) Joinability.forEachMapping(tuples(i), cols, vals) { mapping => hitIds += i; hitMappings += mapping }
    (table, ids.length, cols.length, hitIds.result(), hitMappings.result())
  }

  /** What [[verifyPass]] masks with: the row super keys `rowSk`, the
    * `hash` they were built with, and each query tuple's super key.
    */
  private final case class Mask(rowSk: DataFrame, hash: SuperKeyHash, qsk: Array[Array[Byte]])

  /** `hash.superKey` of the values of the row map `m`. */
  private def superKeyOf(hash: SuperKeyHash, m: MapData): Array[Byte] = {
    val vals = m.valueArray()
    hash.superKey(Seq.tabulate(vals.numElements())(vals.getUTF8String(_).toString))
  }

  /** The verification pass (step 1): one pass over the row values. With
    * a `mask` it is zipped with the row super keys when the two have as
    * many partitions, one key row read per value row; a row whose key
    * row is another row's (or missing) takes [[superKeyOf]] its values.
    * Returns the records and the number of candidate pairs.
    */
  private def verifyPass(
      rowVals: DataFrame,
      mask: Option[Mask],
      cands: Candidates,
      tuples: Array[Array[String]]): (Array[Record], Long) = {
    val Seq(vt, vr, v) = fieldIndices(rowVals, "tableId", "rowId", "vals")
    val Seq(st, sr, s) = mask.fold(Seq(0, 0, 0))(m => fieldIndices(m.rowSk, "tableId", "rowId", "sk"))
    val hashQsk        = mask.map(m => (m.hash, m.qsk))
    def pass(sks: Iterator[InternalRow], vals: Iterator[InternalRow]): Iterator[(Array[Record], Long)] = {
      val idsOf   = cands.finder(vt, vr)
      val records = Array.newBuilder[Record]
      var pairs   = 0L
      for (row <- vals) {
        val skRow = if (sks.hasNext) sks.next() else null
        val m     = row.getMap(v)
        val ids   = idsOf(row, m)
        if (ids.nonEmpty) {
          pairs += ids.length
          val table = row.getLong(vt)
          hashQsk match {
            case None => records += verifyRow(table, m, ids, tuples)
            case Some((hash, qsk)) =>
              val aligned = skRow != null && skRow.getLong(st) == table && skRow.getLong(sr) == row.getLong(vr)
              val sk      = if (aligned) skRow.getBinary(s) else superKeyOf(hash, m)
              val kept    = ids.filter(id => Bits.subsetOf(qsk(id), sk))
              if (kept.nonEmpty) records += verifyRow(table, m, kept, tuples)
          }
        }
      }
      Iterator.single((records.result(), pairs))
    }
    val vals   = rowVals.queryExecution.toRdd
    val sks    = mask.map(_.rowSk.queryExecution.toRdd).filter(_.getNumPartitions == vals.getNumPartitions)
    val passes = sks.fold(vals.mapPartitions(pass(Iterator.empty, _)))(_.zipPartitions(vals)(pass))
    val parts  = perCore(passes).collect()
    (parts.flatMap(_._1), parts.iterator.map(_._2).sum)
  }

  /** The driver-side fold of the verified `records` of `candidatePairs`
    * candidate pairs, each masked once if `masked`: [[Metrics]] and the
    * top-k.
    */
  private def result(records: Array[Record], candidatePairs: Long, masked: Boolean, k: Int, t0: Long): Result = {
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
      candidatePairs = candidatePairs,
      maskChecks = if (masked) candidatePairs else 0L,
      verifiedPairs = verifiedPairs,
      rowsChecked = rows,
      tpRows = tpRows,
      fpRows = rows - tpRows,
      cellsCompared = cellsCompared,
      millis = millis))
  }
}
