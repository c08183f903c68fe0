package repro.corpus

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import scala.util.Random

/** Synthetic table-corpus generator (substitute for DWTC / German Open
  * Data / School / Kaggle — see DESIGN.md §2–3).
  *
  * A corpus is a cells DataFrame `(tableId, colId, rowId, value)` plus a
  * family of query tables. Planting is explicit, so ground truth for
  * joinability and false-positive pressure is known by construction:
  *
  *  - '''joinable''' tables embed full query key tuples under a hidden
  *    column permutation (the mapping the search must recover, §2);
  *  - '''partial''' tables embed proper subsets of key tuples — the
  *    rows a unary inverted index retrieves but an n-ary join must
  *    reject (the paper's FP rows, §3);
  *  - '''noise''' tables contain unrelated vocabulary draws.
  */
object CorpusGen {

  /** One cell of a corpus table. */
  final case class Cell(tableId: Long, colId: Int, rowId: Long, value: String)

  /** A query table restricted to its selected key columns Q (other
    * columns are irrelevant to discovery, §2).
    */
  final case class QueryTable(set: String, id: Int, rows: Seq[Seq[String]]) {
    /** Key columns; 0 for a query table with no rows. */
    def qSize: Int = rows.headOption.fold(0)(_.length)
    /** Distinct key tuples — the projection π_X(R) of Eq. 1. */
    def tuples: Seq[Seq[String]] = rows.distinct
  }

  /** A named group of query tables, e.g. WT (100). */
  final case class QuerySet(name: String, corpus: String, queries: Seq[QueryTable])

  /** Corpus shape parameters. */
  final case class CorpusConfig(
      name: String,
      nTables: Int,
      minCols: Int, maxCols: Int,
      minRows: Int, maxRows: Int,
      vocabSize: Int,
      pJoinable: Double,
      pPartial: Double,
      seed: Long)

  /** Query-set shape parameters; `cardinality` is the row count of each
    * generated query table (Table 1's "Cardinality" column).
    */
  final case class QuerySetConfig(name: String, nQueries: Int, cardinality: Int, qSize: Int)

  /** Fully materialised corpus + query workload. */
  final case class Corpus(
      name: String,
      cells: DataFrame,
      querySets: Seq[QuerySet],
      avgColumns: Double,
      uniqueValues: Long,
      nTables: Int)

  // Internal per-table spec, expanded to cells inside executors. Must be
  // public: Spark's codegen cannot deserialize private case classes.
  final case class PlantedRow(values: Seq[String], cols: Seq[Int])
  final case class TableSpec(
      tableId: Long, nCols: Int, nRows: Int, seed: Long,
      planted: Seq[PlantedRow])

  /** Generate query tables: each key column draws from its own slice of
    * the pool (column domains, as in real tables), with light value
    * reuse so the per-column cardinality is below the row count.
    */
  private def genQueries(cfgs: Seq[QuerySetConfig], pool: Array[String], rng: Random,
                         corpusName: String): Seq[QuerySet] =
    cfgs.map { qc =>
      val queries = (0 until qc.nQueries).map { qi =>
        // per-column domain slices, disjoint-ish across columns
        val domains = (0 until qc.qSize).map { c =>
          val size  = math.max(4, qc.cardinality / (2 + c))
          Array.fill(size)(pool(rng.nextInt(pool.length)))
        }
        val rows = (0 until qc.cardinality).map { _ =>
          domains.map(d => d(rng.nextInt(d.length))).toSeq
        }
        QueryTable(qc.name, qi, rows)
      }
      QuerySet(qc.name, corpusName, queries)
    }

  /** Build a corpus and its query workload, deterministic in the configs. */
  def generate(spark: SparkSession, cfg: CorpusConfig, queryCfgs: Seq[QuerySetConfig]): Corpus = {
    import spark.implicits._
    val rng  = new Random(cfg.seed)
    val pool = Vocab.pool(cfg.vocabSize, cfg.seed ^ 0x5eedL)

    val querySets = genQueries(queryCfgs, pool, rng, cfg.name)
    val allQueries = querySets.flatMap(_.queries)

    val specs = (0L until cfg.nTables.toLong).map { t =>
      val nCols0 = cfg.minCols + rng.nextInt(cfg.maxCols - cfg.minCols + 1)
      val nRows  = cfg.minRows + rng.nextInt(cfg.maxRows - cfg.minRows + 1)
      val kind   = rng.nextDouble()
      val planted: Seq[PlantedRow] =
        if (allQueries.isEmpty) Seq.empty
        else if (kind < cfg.pJoinable) {
          // joinable table: a fraction of one query's tuples, hidden mapping
          val q       = allQueries(rng.nextInt(allQueries.length))
          val nCols   = math.max(nCols0, q.qSize + 1)
          val mapping = rng.shuffle((0 until nCols).toList).take(q.qSize)
          val frac    = 0.05 + rng.nextDouble() * 0.75
          val tuples  = rng.shuffle(q.tuples).take(math.max(1, (q.tuples.size * frac).toInt))
          tuples.take(nRows).map(tp => PlantedRow(tp, mapping))
        } else if (kind < cfg.pJoinable + cfg.pPartial) {
          // partial table: proper subsets of key tuples → unary-index FPs
          val q      = allQueries(rng.nextInt(allQueries.length))
          val nCols  = math.max(nCols0, q.qSize + 1)
          val tuples = rng.shuffle(q.tuples).take(math.min(nRows, q.tuples.size))
          tuples.map { tp =>
            val keep = 1 + rng.nextInt(math.max(1, tp.length - 1)) // 1..qSize-1 values
            val idx  = rng.shuffle(tp.indices.toList).take(keep)
            val cols = rng.shuffle((0 until nCols).toList).take(keep)
            PlantedRow(idx.map(tp), cols)
          }
        } else Seq.empty
      val nCols = if (planted.nonEmpty) math.max(nCols0, planted.map(_.cols.max).max + 1) else nCols0
      TableSpec(t, nCols, math.max(nRows, planted.size), rng.nextLong(), planted)
    }

    val poolB = spark.sparkContext.broadcast(pool)
    val cells: Dataset[Cell] = spark.createDataset(specs).flatMap { spec =>
      val p   = poolB.value
      val rng = new Random(spec.seed)
      val out = scala.collection.mutable.ArrayBuffer.empty[Cell]
      var r = 0L
      // planted rows first (row ids 0..), then background rows
      spec.planted.foreach { pr =>
        val assigned = pr.cols.zip(pr.values).toMap
        var c = 0
        while (c < spec.nCols) {
          out += Cell(spec.tableId, c, r, assigned.getOrElse(c, Vocab.draw(p, rng)))
          c += 1
        }
        r += 1
      }
      while (r < spec.nRows) {
        var c = 0
        while (c < spec.nCols) {
          out += Cell(spec.tableId, c, r, Vocab.draw(p, rng))
          c += 1
        }
        r += 1
      }
      out
    }

    val cellsDf = cells.toDF().cache()
    val avgCols = cellsDf.groupBy("tableId")
      .agg(org.apache.spark.sql.functions.max($"colId") + 1 as "nc")
      .agg(org.apache.spark.sql.functions.avg($"nc")).head().getDouble(0)
    val uniq = cellsDf.select("value").distinct().count()
    Corpus(cfg.name, cellsDf, querySets, avgCols, uniq, cfg.nTables)
  }

  // ---- preset shapes mirroring the paper's corpora (scaled down) ----

  /** DWTC-like: many small, narrow tables (V ≈ 5). */
  def webTablesConfig(nTables: Int = 1200, seed: Long = 7): CorpusConfig =
    CorpusConfig("WT", nTables, minCols = 3, maxCols = 7, minRows = 8, maxRows = 40,
      vocabSize = 8000, pJoinable = 0.15, pPartial = 0.20, seed = seed)

  /** German-Open-Data-like: fewer, wider, longer tables (V ≈ 26). */
  def openDataConfig(nTables: Int = 250, seed: Long = 11): CorpusConfig =
    CorpusConfig("OD", nTables, minCols = 18, maxCols = 34, minRows = 40, maxRows = 160,
      vocabSize = 12000, pJoinable = 0.15, pPartial = 0.20, seed = seed)

  /** School-corpus-like: few very wide and long tables. */
  def schoolConfig(nTables: Int = 40, seed: Long = 13): CorpusConfig =
    CorpusConfig("School", nTables, minCols = 22, maxCols = 32, minRows = 400, maxRows = 900,
      vocabSize = 6000, pJoinable = 0.25, pPartial = 0.30, seed = seed)
}
