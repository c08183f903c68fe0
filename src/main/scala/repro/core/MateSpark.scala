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
  *  1. '''candidates, row filtering and calculateJ''', one pass over the
  *     row values, zipped partition by partition with the row super keys
  *     when there is a hash. The init column is the one of minimum
  *     cardinality (§6.1). A row's value map holds every normalised cell
  *     of the row, so its init-column posting-list items are exactly its
  *     values among the query's init values: the pass looks each value
  *     up, as the row map's own bytes, in a map of the init values, and
  *     the row's candidate tuples are the distinct tuple ids of its hits.
  *     A partition first drains its super keys into a map; a candidate
  *     tuple is kept only if the row's super key masks its query super
  *     key (`qsk ⊆ sk`, §6.3), and the survivors are verified in place:
  *     [[Joinability.forEachMapping]] enumerates their column mappings
  *     on the row map's key and value arrays. One compact record per
  *     verified row comes back: table, pairs, cells, and flat arrays of
  *     the matching tuple ids with their packed mappings. SCR has no
  *     filter: its pass reads the row values alone and verifies every
  *     candidate row.
  *  2. '''the fallback''', for the candidate rows whose super key the
  *     pass did not find in their partition. The relations
  *     [[repro.index.InvertedIndex]] builds hash-aggregate on
  *     `(tableId, rowId)` and keep that partitioning when cached, so for
  *     them there are none and no further job runs. Their plans cannot
  *     show this in advance; for any other relations (uncached,
  *     repartitioned, or with a different partition count, when the row
  *     values are read alone) those rows come back unmasked, and the
  *     candidate-driven passes [[discover]] runs finish them exactly: one
  *     over the super keys zipped with the row values masks them and
  *     verifies the survivors it finds there, and SCR's candidate pass
  *     verifies the rest.
  *  3. '''top-k''', on the driver — the records fold into [[Metrics]]
  *     and, per table, into a [[Joinability.TableScore]], the best
  *     mapping's distinct-tuple count; the k best under
  *     `(-j, tableId)` are returned.
  *
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
    val records = verifyCandidates(Rows(pairs.groupMap(p => (p._1, p._2))(_._3)), qIds.map(tuples(_).toArray), rowVals, masks)
    result(records, pairs.length, masks.isDefined, k, t0)
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

  /** [[fetch]] for many queries in one pass over the posting lists, which
    * keeps the items holding any query's init value: query `i`'s items
    * are at `i`.
    */
  def fetchAll(postingLists: DataFrame, queries: Seq[QueryTable]): IndexedSeq[Array[(Long, Long, String)]] = {
    val wanted = ValueIds(queries.zipWithIndex.flatMap { case (q, i) => initValues(q).distinct.map(_ -> i) })
    val Seq(v, t, r) = fieldIndices(postingLists, "value", "tableId", "rowId")
    val items = postingLists.queryExecution.toRdd.mapPartitions { rows =>
      val at = wanted.index
      rows.flatMap { row =>
        val x = at.getOrElse(row.getUTF8String(v), -1)
        if (x < 0) None else Some((row.getLong(t), row.getLong(r), x))
      }
    }.collect()
    val values  = wanted.values.map(new String(_, UTF_8))
    val byQuery = IndexedSeq.fill(queries.size)(Array.newBuilder[(Long, Long, String)])
    for ((table, row, x) <- items; i <- wanted.idsOf(x)) byQuery(i) += ((table, row, values(x)))
    byQuery.map(_.result().distinct)
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
    val init   = ValueIds(initValues(q).zipWithIndex)
    val masks  = for (sk <- rowSk; h <- hash) yield (sk, tuples.map(h.superKey).toArray)
    val arrays = tuples.map(_.toArray).toArray
    val (found, candidatePairs, unseen) = findAndVerify(rowVals, masks, init, arrays)
    val records = if (unseen.tables.isEmpty) found else found ++ verifyCandidates(unseen, arrays, rowVals, masks)
    result(records, candidatePairs, masks.isDefined, k, t0)
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

  /** Distinct values with the ids that hold them, as flat arrays: value
    * `i` is the UTF-8 string `values(i)`, held by
    * `ids(offsets(i) until offsets(i + 1))`. Each task builds the
    * [[index]] once and looks the row values up in it as they are
    * stored, without decoding them.
    */
  private final case class ValueIds(values: Array[Array[Byte]], offsets: Array[Int], ids: Array[Int]) {
    def idsOf(i: Int): Array[Int] = ids.slice(offsets(i), offsets(i + 1))

    def index: mutable.HashMap[UTF8String, Int] = {
      val m = new mutable.HashMap[UTF8String, Int](values.length, mutable.HashMap.defaultLoadFactor)
      for (i <- values.indices) m(UTF8String.fromBytes(values(i))) = i
      m
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

  /** The ids `init` holds for the distinct values of `vals`, the value
    * array of a row map; `at` is `init.index`.
    */
  private def candidateIds(vals: ArrayData, at: mutable.HashMap[UTF8String, Int], init: ValueIds): Array[Int] = {
    var hits = List.empty[Int]
    var c    = 0
    while (c < vals.numElements()) {
      val x = at.getOrElse(vals.getUTF8String(c), -1)
      if (x >= 0 && !hits.contains(x)) hits = x :: hits
      c += 1
    }
    if (hits.isEmpty) Array.emptyIntArray else hits.toArray.flatMap(init.idsOf)
  }

  /** Candidates, row filter and verification in one pass over the row
    * values, zipped with the row super keys when `masks` is set and the
    * two have as many partitions. Returns the records, the number of
    * candidate pairs, and the candidate rows whose super key the pass did
    * not find in their partition, unmasked.
    */
  private def findAndVerify(
      rowVals: DataFrame,
      masks: Option[(DataFrame, Array[Array[Byte]])],
      init: ValueIds,
      tuples: Array[Array[String]]): (Array[Record], Long, Rows) = {
    val Seq(vt, vr, v) = fieldIndices(rowVals, "tableId", "rowId", "vals")
    val skFields       = masks.map { case (rowSk, _) => fieldIndices(rowSk, "tableId", "rowId", "sk") }
    val qsk            = masks.map(_._2)
    def pass(sks: Iterator[InternalRow], vals: Iterator[InternalRow]): Iterator[(Array[Record], Long, Array[((Long, Long), Array[Int])])] = {
      val skOf = mutable.HashMap.empty[(Long, Long), Array[Byte]]
      for (Seq(st, sr, s) <- skFields; row <- sks) skOf((row.getLong(st), row.getLong(sr))) = row.getBinary(s)
      val at      = init.index
      val records = Array.newBuilder[Record]
      val unseen  = Array.newBuilder[((Long, Long), Array[Int])]
      var pairs   = 0L
      for (row <- vals) {
        val m   = row.getMap(v)
        val ids = candidateIds(m.valueArray(), at, init)
        if (ids.nonEmpty) {
          pairs += ids.length
          val table = row.getLong(vt)
          qsk match {
            case None => records += verifyRow(table, m, ids, tuples)
            case Some(q) =>
              val key = (table, row.getLong(vr))
              skOf.get(key) match {
                case Some(sk) =>
                  val kept = ids.filter(id => Bits.subsetOf(q(id), sk))
                  if (kept.nonEmpty) records += verifyRow(table, m, kept, tuples)
                case None => unseen += key -> ids
              }
          }
        }
      }
      Iterator.single((records.result(), pairs, unseen.result()))
    }
    val vals   = rowVals.queryExecution.toRdd
    val sks    = masks.map(_._1.queryExecution.toRdd).filter(_.getNumPartitions == vals.getNumPartitions)
    val passes = sks.fold(vals.mapPartitions(pass(Iterator.empty, _)))(_.zipPartitions(vals)(pass))
    val parts  = perCore(passes).collect()
    (parts.flatMap(_._1), parts.iterator.map(_._2).sum, Rows(parts.iterator.flatMap(_._3)))
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
        at.get((table, row.getLong(r))).map(i => verifyRow(table, row.getMap(v), cand.idsOf(i), tuples))
      }
    }).collect()
  }

  /** Row filter and verification of the candidate rows `cand`: one pass
    * over the row super keys zipped with the row values. A partition
    * drains its super keys first: a candidate row keeps the tuple ids
    * whose query super key its own masks, one subset test per candidate
    * pair (§6.3's "single operation"). Then it verifies the surviving
    * rows it finds among its row values. Returns the records and the
    * unseen survivors.
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
        kept.remove(key).map(verifyRow(key._1, row.getMap(v), _, tuples))
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

  /** Row filter and verification of the candidate rows `cand`: with
    * `masks` (the row super keys and each query tuple's super key)
    * [[filterAndVerify]], then SCR's [[verifyRows]] for the survivors it
    * did not find; without, [[verifyRows]] alone.
    */
  private def verifyCandidates(
      cand: Rows,
      tuples: Array[Array[String]],
      rowVals: DataFrame,
      masks: Option[(DataFrame, Array[Array[Byte]])]): Array[Record] = masks match {
    case None => verifyRows(rowVals, cand, tuples)
    case Some((rowSk, qsk)) =>
      val (seen, unseen) = filterAndVerify(rowSk, rowVals, cand, qsk, tuples)
      if (unseen.tables.isEmpty) seen else seen ++ verifyRows(rowVals, unseen, tuples)
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
