package repro.perfbench

import org.apache.spark.sql.{DataFrame, Row, SparkSession}

import repro.core.{InitColumn, MateSpark}
import repro.core.MateLocal.PlItem
import repro.corpus.CorpusGen
import repro.corpus.CorpusGen.{Corpus, QueryTable}
import repro.harness.Experiments
import repro.hash.Xash
import repro.index.InvertedIndex

/** One fetched candidate pair: a corpus row holding the init value of
  * query tuple `qTupleId` (as [[MateSpark.candidates]] returns it).
  */
final case class Candidate(tableId: Long, rowId: Long, qTupleId: Int, tuple: Seq[String])

/** One corpus of a workload with its cached XASH-128 index and the
  * driver-side row copies the sequential engine verifies against.
  *
  * `skMap` feeds only the traced run's filter/verify replay; untraced
  * runs leave it empty, so `heap_mb` counts what the engines hold and
  * nothing the benchmark keeps for itself.
  */
final case class Shard(
    corpus: Corpus,
    xash: Xash,
    pls: DataFrame,
    rowVals: DataFrame,
    rowSk: DataFrame,
    localRows: Map[Long, Map[Long, Map[Int, String]]],
    skMap: Map[(Long, Long), Array[Byte]]) {

  def rows(tableId: Long): Map[Long, Map[Int, String]] = localRows.getOrElse(tableId, Map.empty)
}

/** One query of the workload with the posting-list items `MateLocal`
  * runs on. `candidates` (the fetched pairs) is kept for the replay only.
  */
final case class Query(shardIx: Int, q: QueryTable, plItems: Seq[PlItem], candidates: Array[Candidate]) {
  def label: String = s"shard $shardIx ${q.set}#${q.id}"
}

final case class Prepared(shards: IndexedSeq[Shard], queries: IndexedSeq[Query]) {
  def shard(qi: Int): Shard = shards(queries(qi).shardIx)
}

/** Wall time of one shard's set-up, split by step. */
final case class SetupTimes(generate: Double, postingLists: Double, rowValues: Double,
                            rowSuperKeys: Double, fetch: Double, driverCopies: Double) {
  def total: Double = generate + postingLists + rowValues + rowSuperKeys + fetch + driverCopies
}

/** Sets up a workload's shards, one after the other.
  *
  * The steps are those of `Experiments.prepare` plus the row super keys,
  * with one difference: the candidates of all of a shard's queries are
  * fetched in one [[MateSpark.candidates]] join. `Experiments.prepare`
  * runs a join and a collect per query, which costs more than the rest
  * of a shard's set-up together and would leave too few queries in a run
  * for steady latency medians.
  */
object Setup {

  /** qTupleId stride that keeps a shard's queries apart in one fetch join. */
  private val Stride = 1 << 20

  def seconds[A](f: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a = f
    (a, (System.nanoTime() - t0) / 1e9)
  }

  def run(spark: SparkSession, w: Workload, seed: Long, tracer: Tracer, keepReplayData: Boolean): (Prepared, Seq[SetupTimes]) = {
    val built = (0 until w.shards).map { s =>
      val (corpus, tGen) = seconds(tracer.span("corpus.generate") {
        CorpusGen.generate(spark, w.corpus(w.shardSeed(seed, s)), w.querySets)
      })
      // Table 2's XASH: the α rule of the hash grid, not Hashes.byName.
      val xash = Experiments.hashGrid(corpus.avgColumns, corpus.uniqueValues)
        .collectFirst { case x: Xash if x.bits == 128 => x }.get

      def materialise(name: String)(df: => DataFrame): (DataFrame, Double) =
        seconds(tracer.span(name) { val d = df.cache(); d.count(); d })
      val (pls, tPls)    = materialise("index.posting_lists")(InvertedIndex.postingLists(corpus.cells))
      val (rowVals, tRv) = materialise("index.row_values")(InvertedIndex.rowValues(corpus.cells))
      val (rowSk, tSk)   = materialise("index.row_super_keys")(InvertedIndex.rowSuperKeys(corpus.cells, xash))

      val queries = corpus.querySets.flatMap(_.queries).toIndexedSeq

      // query i's tuple ids are offset by i × Stride, so the candidates
      // split back per query
      val (candidates, tFetch) = seconds(tracer.span("prepare.fetch") {
        val schema = MateSpark.prepareQuery(spark, queries.head).schema
        val rows = queries.zipWithIndex.flatMap { case (q, i) =>
          MateSpark.prepareQuery(spark, q).collect().map(r => Row(r.getInt(0) + i * Stride, r.get(1), r.get(2)))
        }
        val all = spark.createDataFrame(spark.sparkContext.parallelize(rows, 1), schema)
        val byQuery = MateSpark.candidates(pls, all).collect()
          .map(r => (r.getInt(2) / Stride, Candidate(r.getLong(0), r.getLong(1), r.getInt(2) % Stride, r.getSeq[String](3))))
          .groupBy(_._1)
        queries.indices.map(i => byQuery.get(i).map(_.map(_._2).sortBy(c => (c.tableId, c.rowId, c.qTupleId))).getOrElse(Array.empty[Candidate]))
      })

      // the copies Experiments.prepare and Experiments.runLocal build
      val ((localRows, skMap, plItems), tCopies) = seconds(tracer.span("prepare.driver_copies") {
        val localRows = rowVals.collect().groupBy(_.getLong(0)).map { case (t, rs) =>
          t -> rs.map(r => r.getLong(1) -> r.getMap[Int, String](2).toMap).toMap
        }
        val skMap = rowSk.collect().map(r => (r.getLong(0), r.getLong(1)) -> r.getAs[Array[Byte]](2)).toMap
        val plItems = queries.indices.map { i =>
          val initCol = InitColumn.byCardinality(queries(i).rows)
          candidates(i).map(c => (c.tableId, c.rowId, c.tuple(initCol))).distinct.toSeq
            .map { case (t, r, v) => PlItem(t, r, v, skMap((t, r))) }
        }
        (localRows, skMap, plItems)
      })

      val shard = Shard(corpus, xash, pls, rowVals, rowSk, localRows, if (keepReplayData) skMap else Map.empty)
      val qs = queries.indices.map { i =>
        Query(s, queries(i), plItems(i), if (keepReplayData) candidates(i) else Array.empty[Candidate])
      }
      (shard, qs, SetupTimes(tGen, tPls, tRv, tSk, tFetch, tCopies))
    }
    (Prepared(built.map(_._1), built.flatMap(_._2)), built.map(_._3))
  }
}
