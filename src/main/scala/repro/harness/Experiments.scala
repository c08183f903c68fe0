package repro.harness

import org.apache.spark.sql.{DataFrame, SparkSession}

import repro.baselines.{JosieLite, Mcr}
import repro.core.{InitColumn, MateSpark}
import repro.corpus.CorpusGen
import repro.corpus.CorpusGen.{Corpus, QuerySetConfig, QueryTable}
import repro.hash.{Hashes, SuperKeyHash}
import repro.index.InvertedIndex

/** Experiment harness reproducing the paper's §7 evaluation grid.
  *
  * The scaled-down workload mirrors Table 1's eight query sets (three
  * DWTC-like, three open-data-like, Kaggle, School) — see DESIGN.md §2
  * for each corpus substitution. k = 10 and the 128-bit default hash
  * space follow §7.1.
  *
  * The paper-comparable runtimes exclude the posting-list fetch, as the
  * paper does (§7.2): the sequential Algorithm 1 runs on posting lists
  * fetched in [[prepare]]. [[MateSpark.run]] finds its candidates inside
  * its one pass, so its `millis` include that step.
  * Deterministic work counters (cells compared in exact verification)
  * are recorded next to wall-clock because the simulator's absolute
  * times are not the paper's server's (DESIGN.md §6).
  */
object Experiments {

  val K = 10

  /** One (query set × system configuration) measurement, averaged over
    * the set's queries.
    */
  final case class GridResult(
      set: String,
      corpus: String,
      config: String,
      bits: Int,
      millis: Double,        // distributed dataflow wall-clock (includes Spark job overhead)
      localMicros: Double,   // sequential Algorithm 1 wall-clock — the paper-comparable runtime
      cellsCompared: Double,
      candidatePairs: Double,
      rowsChecked: Double,
      tpRows: Double,
      fpRows: Double,
      precision: Double,
      avgTop1J: Double)

  /** Table 1 statistics for one query set. */
  final case class SetStats(
      set: String, corpus: String, nQueries: Int,
      avgCardinality: Double, avgJoinability: Double)

  /** A corpus with its cached index structures.
    *
    * `localRows` / `localPls` are the driver-side copies the sequential
    * Algorithm 1 runs on: every row's values, and each query's
    * init-column posting-list items ([[MateSpark.fetchAll]]) — mirroring
    * the paper's architecture, where the Vertica index is queried once
    * and the top-k loop is a single-node computation whose runtime
    * Table 2 reports.
    */
  final case class PreparedCorpus(
      corpus: Corpus,
      pls: DataFrame,
      rowVals: DataFrame,
      queries: Map[String, Seq[QueryTable]],
      localRows: Map[Long, Map[Long, Map[Int, String]]],
      localPls: Map[(String, Int), Seq[(Long, Long, String)]])

  /** Paper Table 1 workload, scaled to the simulator (DESIGN.md §2).
    * Cardinalities keep the paper's ordering and rough ratios.
    */
  def workload(spark: SparkSession, queriesPerSet: Int = 2): Seq[PreparedCorpus] = {
    val wt = CorpusGen.generate(spark, CorpusGen.webTablesConfig(), Seq(
      QuerySetConfig("WT (10)",  queriesPerSet, cardinality = 4,    qSize = 2),
      QuerySetConfig("WT (100)", queriesPerSet, cardinality = 16,   qSize = 2),
      QuerySetConfig("WT (1k)",  queriesPerSet, cardinality = 150,  qSize = 2),
      QuerySetConfig("Kaggle",   queriesPerSet, cardinality = 800,  qSize = 2)))
    val od = CorpusGen.generate(spark, CorpusGen.openDataConfig(), Seq(
      QuerySetConfig("OD (100)", queriesPerSet, cardinality = 15,   qSize = 2),
      QuerySetConfig("OD (1k)",  queriesPerSet, cardinality = 260,  qSize = 2),
      QuerySetConfig("OD (10k)", queriesPerSet, cardinality = 800,  qSize = 3)))
    val school = CorpusGen.generate(spark, CorpusGen.schoolConfig(), Seq(
      QuerySetConfig("School",   queriesPerSet, cardinality = 600,  qSize = 2)))
    Seq(wt, od, school).map(prepare(spark, _))
  }

  def prepare(spark: SparkSession, corpus: Corpus): PreparedCorpus = {
    val pls     = InvertedIndex.postingLists(corpus.cells).cache()
    val rowVals = InvertedIndex.rowValues(corpus.cells).cache()
    pls.count(); rowVals.count()
    val queries = corpus.querySets.map(qs => qs.name -> qs.queries).toMap

    // Driver-side copies for the sequential Algorithm 1 (fetch phase,
    // excluded from measured runtime as in §7.2): one fetch job for all
    // of the corpus's queries.
    val localRows: Map[Long, Map[Long, Map[Int, String]]] = rowVals.collect()
      .groupBy(_.getLong(0))
      .map { case (t, rs) =>
        t -> rs.map(r => r.getLong(1) -> r.getMap[Int, String](2).toMap).toMap
      }
    val keyed    = queries.toSeq.flatMap { case (set, qs) => qs.map(q => (set, q.id) -> q) }
    val localPls = keyed.map(_._1).zip(MateSpark.fetchAll(pls, keyed.map(_._2)).map(_.toSeq)).toMap
    PreparedCorpus(corpus, pls, rowVals, queries, localRows, localPls)
  }

  /** Timed rounds of a measurement, after one untimed warm-up call; the
    * median round is reported.
    */
  private val Rounds = 3

  private def median(xs: Seq[Long]): Long = xs.sorted.apply(xs.size / 2)

  private def nanos(f: => Any): Long = { val t0 = System.nanoTime(); f; System.nanoTime() - t0 }

  /** Time one sequential Algorithm-1 discovery (§6) in microseconds: the
    * median of [[Rounds]] runs after a warm-up run.
    */
  def runLocal(
      pc: PreparedCorpus,
      set: String,
      q: QueryTable,
      hash: Option[repro.hash.SuperKeyHash],
      skMap: Option[Map[(Long, Long), Array[Byte]]]): Long = {
    val empty = Array.emptyByteArray
    val pls = pc.localPls((set, q.id)).map { case (t, r, v) =>
      repro.core.MateLocal.PlItem(t, r, v, skMap.map(_((t, r))).getOrElse(empty))
    }
    def discover() = repro.core.MateLocal.discover(pls, q, hash, t => pc.localRows.getOrElse(t, Map.empty), K)
    discover()
    median(Seq.fill(Rounds)(nanos(discover()))) / 1000
  }

  /** Hash families the paper reports at 128/256/512 bits; MD5/Murmur/City
    * appear at 128 bits only, as in the paper's tables.
    */
  private val sizedFamilies = Seq("SimHash", "HT", "BF", "LHBF", "XASH")

  /** Table 2 / Table 3 hash grid (§7.1.2), built by [[Hashes.byName]]. */
  def hashGrid(avgColumns: Double, cUnique: Long): Seq[SuperKeyHash] =
    (Seq(("MD5", 128), ("Murmur", 128), ("City", 128)) ++ Seq(128, 256, 512).flatMap(b => sizedFamilies.map((_, b))))
      .map { case (name, bits) => Hashes.byName(name, bits, avgColumns, cUnique) }

  /** Run one system configuration over every query of a set; average. */
  def runConfig(
      spark: SparkSession,
      pc: PreparedCorpus,
      set: String,
      hash: Option[SuperKeyHash],
      rowSk: Option[DataFrame],
      skMap: Option[Map[(Long, Long), Array[Byte]]] = None): GridResult = {
    val qs = pc.queries(set)
    val results = qs.map(MateSpark.run(spark, pc.pls, pc.rowVals, rowSk, hash, _, K))
    // Sequential Algorithm 1 timing (the paper-comparable runtime).
    val localTimes = qs.map(runLocal(pc, set, _, hash, skMap))
    val n = results.size.toDouble
    val ms = results.map(_.metrics)
    val tp = ms.map(_.tpRows.toDouble).sum
    val fp = ms.map(_.fpRows.toDouble).sum
    GridResult(
      set = set,
      corpus = pc.corpus.name,
      config = hash.map(_.name).getOrElse("SCR"),
      bits = hash.map(_.bits).getOrElse(0),
      millis = ms.map(_.millis.toDouble).sum / n,
      localMicros = localTimes.map(_.toDouble).sum / n,
      cellsCompared = ms.map(_.cellsCompared.toDouble).sum / n,
      candidatePairs = ms.map(_.candidatePairs.toDouble).sum / n,
      rowsChecked = ms.map(_.rowsChecked.toDouble).sum / n,
      tpRows = tp / n,
      fpRows = fp / n,
      precision = if (tp + fp == 0) 1.0 else tp / (tp + fp),
      avgTop1J = results.map(_.topK.headOption.map(_._2.toDouble).getOrElse(0.0)).sum / n)
  }

  /** The full Table 2/3 grid for one prepared corpus: SCR plus every
    * hash configuration. Row super keys are built (offline phase) per
    * configuration and not timed.
    */
  def runGrid(spark: SparkSession, pc: PreparedCorpus): Seq[GridResult] = {
    val sets = pc.queries.keys.toSeq.sorted
    val scr  = sets.map(runConfig(spark, pc, _, None, None))
    val hashed = hashGrid(pc.corpus.avgColumns, pc.corpus.uniqueValues).flatMap { h =>
      val sk = InvertedIndex.rowSuperKeys(pc.corpus.cells, h).cache()
      sk.count()
      val skMap = sk.collect()
        .map(r => (r.getLong(0), r.getLong(1)) -> r.getAs[Array[Byte]]("sk")).toMap
      val rs = sets.map(runConfig(spark, pc, _, Some(h), Some(sk), Some(skMap)))
      sk.unpersist()
      rs
    }
    scr ++ hashed
  }

  /** Table 1 statistics: cardinality is the query-table row count; the
    * joinability column reports the average top-1 joinability an exact
    * (SCR) discovery finds, i.e. the paper's "average joinability
    * score" of the retrieved tables.
    */
  def setStats(spark: SparkSession, pc: PreparedCorpus): Seq[SetStats] =
    pc.queries.keys.toSeq.sorted.map { set =>
      val qs = pc.queries(set)
      val scr = runConfig(spark, pc, set, None, None)
      SetStats(set, pc.corpus.name, qs.size,
        qs.map(_.rows.size.toDouble).sum / qs.size,
        scr.avgTop1J)
    }

  /** §7.5.4 initial-column experiment: average fetched PL items under
    * each heuristic, with best/worst oracle bounds.
    */
  final case class InitColumnResult(
      heuristic: String, avgPlItems: Double)

  def initColumnExperiment(pc: PreparedCorpus, set: String): Seq[InitColumnResult] = {
    val perQuery = pc.queries(set).zip(columnPlItems(pc, set)).map { case (q, counts) =>
      Map(
        "Cardinality"  -> counts(InitColumn.byCardinality(q.rows)),
        "Column Order" -> counts(InitColumn.byColumnOrder(q.rows)),
        "TLS"          -> counts(InitColumn.byLongestString(q.rows)),
        "Worst"        -> counts(InitColumn.worst(counts)),
        "Best"         -> counts(InitColumn.best(counts)))
    }
    Seq("Cardinality", "Column Order", "TLS", "Worst", "Best").map { h =>
      InitColumnResult(h, perQuery.map(_(h).toDouble).sum / perQuery.size)
    }
  }

  /** The posting-list items of each query column of each query in `set`,
    * query `i`'s column `c` at `(i)(c)`, from one pass over the posting
    * lists.
    */
  def columnPlItems(pc: PreparedCorpus, set: String): Seq[Seq[Long]] = {
    val columns = pc.queries(set).map { q =>
      val tuples = q.tuples.map(_.map(SuperKeyHash.normalize))
      (0 until q.qSize).map(i => tuples.map(_(i)))
    }
    val counts = MateSpark.fetchValues(pc.pls, columns.flatten).iterator.map(_.length.toLong)
    columns.map(_.map(_ => counts.next())) // the counts in the order of the flattened columns
  }

  /** Figure-4-shaped systems comparison: MATE+XASH vs SCR, MCR and the
    * Josie adaptations, one row per query set. Each (system, query) gets
    * one untimed warm-up call, which also counts its cells, and then
    * [[Rounds]] timed calls, the systems' order rotated each round; a
    * query's time is its median call.
    */
  final case class SystemResult(set: String, system: String, millis: Double, cellsCompared: Double)

  def systemsExperiment(spark: SparkSession, pc: PreparedCorpus, sets: Seq[String]): Seq[SystemResult] = {
    val xash = Hashes.byName("XASH", 128, pc.corpus.avgColumns, pc.corpus.uniqueValues)
    val sk = InvertedIndex.rowSuperKeys(pc.corpus.cells, xash).cache()
    sk.count()
    val systems: Seq[(String, QueryTable => MateSpark.Metrics)] = Seq(
      "MATE (XASH-128)" -> (q => MateSpark.run(spark, pc.pls, pc.rowVals, Some(sk), Some(xash), q, K).metrics),
      "SCR"             -> (q => MateSpark.run(spark, pc.pls, pc.rowVals, None, None, q, K).metrics),
      "MCR"             -> (q => Mcr.run(pc.pls, pc.rowVals, q, K).metrics),
      "SCR Josie"       -> (q => JosieLite.scrJosie(pc.pls, pc.rowVals, q, K).metrics),
      "MCR Josie"       -> (q => JosieLite.mcrJosie(pc.pls, pc.rowVals, q, K).metrics))
    val out = sets.flatMap { set =>
      val qs    = pc.queries(set)
      val cells = systems.map { case (_, call) => qs.map(call(_).cellsCompared.toDouble).sum / qs.size }
      val order = (0 until Rounds).flatMap(r => systems.indices.map(i => (i + r) % systems.size))
      val times = order.flatMap(s => qs.indices.map(qi => (s, qi) -> nanos(systems(s)._2(qs(qi))))).groupMap(_._1)(_._2)
      for (((system, _), s) <- systems.zipWithIndex)
        yield SystemResult(set, system, qs.indices.map(qi => median(times((s, qi))) / 1e6).sum / qs.size, cells(s))
    }
    sk.unpersist()
    out
  }

  // ---------- reports, printed by the bench suites and TablesJob ----------

  /** All query-set names ordered as in the paper's tables. */
  val setOrder = Seq("WT (10)", "WT (100)", "WT (1k)", "OD (100)", "OD (1k)", "OD (10k)", "Kaggle", "School")

  /** The columns of Tables 2 and 3, in the paper's order. */
  private val table2Configs = Seq(("SCR", 0), ("MD5", 128), ("Murmur", 128), ("City", 128)) ++
    sizedFamilies.flatMap(n => Seq((n, 128), (n, 256), (n, 512)))
  private val table3Configs = Seq(("MD5", 128), ("City", 128)) ++ sizedFamilies.flatMap(n => Seq((n, 128), (n, 512)))

  def byConfig(grid: Seq[GridResult], set: String, config: String, bits: Int): Option[GridResult] =
    grid.find(r => r.set == set && r.config == config && r.bits == bits)

  /** Mean row-filter precision of one configuration over the query sets. */
  def avgPrecision(grid: Seq[GridResult], config: String, bits: Int): Double = {
    val ps = setOrder.flatMap(byConfig(grid, _, config, bits)).map(_.precision)
    ps.sum / ps.size
  }

  private def section(title: String, header: Seq[String], rows: Seq[Seq[String]]): String =
    s"\n=== $title ===\n" + formatTable(header, rows)

  /** One row per query set, one `cell` per configuration ("-" if absent), then `extraRows`. */
  private def gridSection(title: String, grid: Seq[GridResult], configs: Seq[(String, Int)],
                          cell: GridResult => String, extraRows: Seq[Seq[String]]): String =
    section(title, "Dataset" +: configs.map { case (n, b) => if (b == 0) n else s"$n $b" },
      setOrder.map(set => set +: configs.map { case (n, b) => byConfig(grid, set, n, b).map(cell).getOrElse("-") }) ++
        extraRows)

  def table1(stats: Seq[SetStats]): String =
    section("Table 1 (reproduced): input query tables",
      Seq("Query Set", "# of tables", "Corpus", "Cardinality", "Joinability"),
      setOrder.flatMap(s => stats.find(_.set == s)).map(s => Seq(
        s.set, s.nQueries.toString, s.corpus, f"${s.avgCardinality}%.0f", f"${s.avgJoinability}%.1f")))

  def table2(grid: Seq[GridResult]): String = Seq[(String, GridResult => Double)](
    "Table 2 (reproduced): sequential Algorithm-1 runtime, µs (paper-comparable)" -> (_.localMicros),
    "Table 2 (reproduced): cells compared in exact verification" -> (_.cellsCompared),
    "Table 2 (informational): distributed dataflow wall-clock ms, finding the candidates included " +
      "(§7.2 excludes the fetch, so the sequential µs are the paper-comparable runtime)" -> (_.millis))
    .map { case (title, metric) => gridSection(title, grid, table2Configs, r => f"${metric(r)}%.0f", Nil) }.mkString("\n")

  def table3(grid: Seq[GridResult]): String =
    gridSection("Table 3 (reproduced): precision of the row filter", grid, table3Configs, r => f"${r.precision}%.2f",
      Seq("Average" +: table3Configs.map { case (n, b) => f"${avgPrecision(grid, n, b)}%.2f" }))

  /** §7.1 storage of 128-bit super keys: `(corpus name, InvertedIndex.storageStats)`. */
  def storageTable(stats: Seq[(String, (Long, Long, Long, Long))]): String =
    section("Index storage (reproduced §7.1): 128-bit super keys",
      Seq("Corpus", "Cells", "Rows", "SK per cell", "SK per row", "Ratio"),
      stats.map { case (name, (nCells, nRows, perCell, perRow)) => Seq(name, nCells.toString, nRows.toString,
        f"${perCell / 1e6}%.1f MB", f"${perRow / 1e6}%.1f MB", f"${perCell.toDouble / perRow}%.1fx") })

  def initColumnTable(results: Seq[InitColumnResult]): String =
    section("§7.5.4 (reproduced): avg fetched PL items per heuristic",
      Seq("Heuristic", "Avg PL items"), results.map(r => Seq(r.heuristic, f"${r.avgPlItems}%.0f")))

  def systemsTable(results: Seq[SystemResult]): String =
    section("Systems comparison (Figure 4 shape)",
      Seq("Query set", "System", "ms (end to end)", "Cells compared"),
      results.map(r => Seq(r.set, r.system, f"${r.millis}%.0f", f"${r.cellsCompared}%.0f")))

  def formatTable(header: Seq[String], rows: Seq[Seq[String]]): String = {
    val widths = header.indices.map(i => (header(i) +: rows.map(_(i))).map(_.length).max)
    def line(cells: Seq[String]) =
      cells.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString("| ", " | ", " |")
    (line(header) +: line(widths.map("-" * _)) +: rows.map(line)).mkString("\n")
  }
}
