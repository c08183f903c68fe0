package repro

import org.apache.spark.sql.DataFrame
import scala.collection.concurrent.TrieMap

import repro.corpus.CorpusGen
import repro.corpus.CorpusGen.{CorpusConfig, QuerySetConfig, QueryTable}
import repro.core.{MateLocal, MateSpark}
import repro.hash.SuperKeyHash
import repro.index.InvertedIndex

/** Shared, lazily-built test corpus (one per test JVM).
  *
  * Small enough for the DuckDB oracle (a few thousand cells) but with
  * planted joinable and partial tables so discovery results are
  * non-trivial and ground truth is computable locally.
  */
object Fixtures {
  lazy val spark = SparkSpec.shared

  val config: CorpusConfig = CorpusConfig(
    name = "TEST", nTables = 60,
    minCols = 3, maxCols = 6, minRows = 8, maxRows = 20,
    vocabSize = 400, pJoinable = 0.2, pPartial = 0.2, seed = 99)

  val queryConfigs = Seq(
    QuerySetConfig("Q2", nQueries = 2, cardinality = 20, qSize = 2),
    QuerySetConfig("Q3", nQueries = 1, cardinality = 12, qSize = 3))

  lazy val corpus: CorpusGen.Corpus = CorpusGen.generate(spark, config, queryConfigs)

  lazy val queries2: Seq[QueryTable] = corpus.querySets.find(_.name == "Q2").get.queries
  lazy val queries3: Seq[QueryTable] = corpus.querySets.find(_.name == "Q3").get.queries
  lazy val allQueries: Seq[QueryTable] = queries2 ++ queries3

  lazy val pls: DataFrame     = InvertedIndex.postingLists(corpus.cells).cache()
  lazy val rowVals: DataFrame = InvertedIndex.rowValues(corpus.cells).cache()

  // Keyed on the hash instance itself (case-class equality) — the display
  // name alone collides for e.g. BF-128 with different hash counts. The
  // row values are cached first, so the keys are a narrow map over that
  // cache, aligned with it row by row, as in the program.
  private val skCache = TrieMap.empty[SuperKeyHash, DataFrame]
  def rowSk(h: SuperKeyHash): DataFrame =
    skCache.getOrElseUpdate(h, { rowVals.count(); InvertedIndex.rowSuperKeys(corpus.cells, h).cache() })

  /** `q`'s posting-list items fetched from the Spark index — the
    * Vertica-fetch step of the paper's architecture — with `h`'s row
    * super keys (empty without a hash): the input [[MateLocal.discover]]
    * runs on.
    */
  def plItems(q: QueryTable, h: Option[SuperKeyHash]): Seq[MateLocal.PlItem] = {
    val sks = h.map(rowSk(_).collect().map(r => (r.getLong(0), r.getLong(1)) -> r.getAs[Array[Byte]]("sk")).toMap)
    MateSpark.fetch(pls, q).toSeq
      .map { case (t, r, v) => MateLocal.PlItem(t, r, v, sks.fold(Array.emptyByteArray)(_((t, r)))) }
  }

  /** Normalised local copy: tableId → rowId → (colId → value). */
  lazy val localTables: Map[Long, Map[Long, Map[Int, String]]] =
    corpus.cells.collect()
      .groupBy(_.getLong(0))
      .map { case (t, cells) =>
        t -> cells.groupBy(_.getLong(2)).map { case (r, cs) =>
          r -> cs.map(c => c.getInt(1) -> SuperKeyHash.normalize(c.getString(3))).toMap
        }
      }

  /** Ground-truth joinability of every corpus table for query `q`. */
  def groundTruthJ(q: QueryTable): Map[Long, Long] =
    localTables.map { case (t, rows) =>
      t -> Reference.groundTruth(q.tuples, rows.values)
    }.filter(_._2 > 0)

  /** Ground-truth top-k, ordered like the discovery dataflow. */
  def gtTopK(q: QueryTable, k: Int): Seq[(Long, Long)] =
    groundTruthJ(q).toSeq.sortBy { case (t, j) => (-j, t) }.take(k)
}

/** Seeded pseudo-property helper (scalatest + scalacheck only; the
  * scalatestplus bridge is not on the offline classpath).
  */
trait PropHelpers {
  def forAllSeeded(n: Int, seed: Long = 42)(f: scala.util.Random => Unit): Unit = {
    val rng = new scala.util.Random(seed)
    (0 until n).foreach(_ => f(rng))
  }

  def randomWord(rng: scala.util.Random, maxLen: Int = 12): String = {
    val len = 1 + rng.nextInt(maxLen)
    val sb = new StringBuilder
    (0 until len).foreach { _ =>
      val x = rng.nextInt(38)
      sb.append(
        if (x < 26) ('a' + x).toChar
        else if (x < 36) ('0' + (x - 26)).toChar
        else ' ')
    }
    sb.toString.trim match { case "" => "x"; case s => s }
  }
}
