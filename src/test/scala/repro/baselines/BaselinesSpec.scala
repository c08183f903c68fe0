package repro.baselines

import org.apache.spark.{SparkJobCounter, SqlExecutionCounter}
import repro.{Fixtures, SparkSpec}
import repro.core.MateSpark
import repro.corpus.CorpusGen.Cell
import repro.harness.Experiments
import repro.hash.SuperKeyHash
import repro.index.InvertedIndex

class BaselinesSpec extends SparkSpec {

  private val k = 5

  test("MCR intersection keeps every joinable row: top-k equals SCR/ground truth") {
    for (q <- Fixtures.allQueries) {
      val r = Mcr.run(Fixtures.pls, Fixtures.rowVals, q, k)
      assert(r.topK == Fixtures.gtTopK(q, k), s"query ${q.set}/${q.id}")
    }
  }

  test("MCR fetches posting lists for every query column (the |Q|-fold cost of §3)") {
    val q2 = Fixtures.queries2.head
    val q3 = Fixtures.queries3.head
    val r2 = Mcr.run(Fixtures.pls, Fixtures.rowVals, q2, k)
    val r3 = Mcr.run(Fixtures.pls, Fixtures.rowVals, q3, k)
    assert(r2.plItemsFetched > 0 && r3.plItemsFetched > 0)
    // MCR fetch volume is at least the single-column (SCR) fetch volume
    val scrCand = MateSpark.candidates(Fixtures.pls, MateSpark.prepareQuery(spark, q2)).count()
    assert(r2.plItemsFetched >= scrCand)
  }

  test("MCR verification work is bounded by SCR's (intersection only removes rows)") {
    for (q <- Fixtures.allQueries.take(2)) {
      val mcr = Mcr.run(Fixtures.pls, Fixtures.rowVals, q, k)
      val scr = MateSpark.run(spark, Fixtures.pls, Fixtures.rowVals, None, None, q, k)
      assert(mcr.metrics.rowsChecked <= scr.metrics.rowsChecked)
    }
  }

  test("SCR-Josie with full candidate coverage equals ground truth") {
    for (q <- Fixtures.allQueries) {
      val r = JosieLite.scrJosie(Fixtures.pls, Fixtures.rowVals, q, k,
        candidateFactor = Fixtures.corpus.nTables / k + 1)
      assert(r.topK == Fixtures.gtTopK(q, k), s"query ${q.set}/${q.id}")
    }
  }

  test("SCR-Josie with a narrow candidate set may miss tables but never overstates j") {
    val q  = Fixtures.queries2.head
    val gt = Fixtures.groundTruthJ(q)
    val r  = JosieLite.scrJosie(Fixtures.pls, Fixtures.rowVals, q, k, candidateFactor = 1)
    r.topK.foreach { case (t, j) => assert(j == gt(t)) } // exact verification inside candidates
  }

  test("MCR-Josie intersects per-column rankings and verifies exactly") {
    val q = Fixtures.queries2.head
    val gt = Fixtures.groundTruthJ(q)
    val r = JosieLite.mcrJosie(Fixtures.pls, Fixtures.rowVals, q, k,
      candidateFactor = Fixtures.corpus.nTables / k + 1)
    r.topK.foreach { case (t, j) => assert(j == gt(t)) }
  }

  test("Josie overlap ranking is a superset-score of true joinability (single-column bound)") {
    val q = Fixtures.queries2.head
    val initCol = repro.core.InitColumn.byCardinality(q.rows)
    val values = q.tuples.map(t => SuperKeyHash.normalize(t(initCol)))
    val items = MateSpark.fetchValues(Fixtures.pls, Seq(values)).head
    val ranked = JosieLite.topTablesByOverlap(items, Fixtures.corpus.nTables).toSet
    // every table with positive joinability must appear in the full ranking
    Fixtures.groundTruthJ(q).keys.foreach(t => assert(ranked.contains(t)))
  }

  test("MCR and both Josie adaptations equal their DataFrame references: PL items, top-k and metrics") {
    def untimed(m: MateSpark.Metrics) = m.copy(millis = 0)
    val (pls, rowVals) = (Fixtures.pls, Fixtures.rowVals)
    for (q <- Fixtures.allQueries) {
      val what = s"query ${q.set}/${q.id}"
      val mcr  = Mcr.run(pls, rowVals, q, k)
      val ref  = DataFrameBaselines.mcr(spark, pls, rowVals, q, k)
      assert(mcr.copy(metrics = untimed(mcr.metrics)) == ref.copy(metrics = untimed(ref.metrics)), s"MCR $what")
      for (f <- Seq(1, 5)) {
        val sj    = JosieLite.scrJosie(pls, rowVals, q, k, f)
        val sjRef = DataFrameBaselines.scrJosie(spark, pls, rowVals, q, k, f)
        assert(sj.copy(metrics = untimed(sj.metrics)) == sjRef.copy(metrics = untimed(sjRef.metrics)), s"SCR-Josie x$f $what")
        val mj    = JosieLite.mcrJosie(pls, rowVals, q, k, f)
        val mjRef = DataFrameBaselines.mcrJosie(spark, pls, rowVals, q, k, f)
        assert(mj.copy(metrics = untimed(mj.metrics)) == mjRef.copy(metrics = untimed(mjRef.metrics)), s"MCR-Josie x$f $what")
      }
    }
  }

  test("one Mcr.run launches at most 2 Spark jobs and plans no SQL query") {
    // and so does each Josie adaptation; the §7.5.4 counts are one job per query set
    val q = Fixtures.queries3.head
    for ((name, call) <- Seq[(String, () => Any)](
           "MCR"       -> (() => Mcr.run(Fixtures.pls, Fixtures.rowVals, q, k)),
           "SCR-Josie" -> (() => JosieLite.scrJosie(Fixtures.pls, Fixtures.rowVals, q, k)),
           "MCR-Josie" -> (() => JosieLite.mcrJosie(Fixtures.pls, Fixtures.rowVals, q, k)))) {
      call() // materialises the cached index parts the query reads
      val (_, counts) = SparkJobCounter(spark)(call())
      assert(counts.jobs <= 2, s"$name: ${counts.jobs} Spark jobs")
      val (_, executions) = SqlExecutionCounter(spark)(call())
      assert(executions == 0, s"$name: $executions SQL query executions")
    }
    val pc = Experiments.PreparedCorpus(Fixtures.corpus, Fixtures.pls, Fixtures.rowVals,
      Fixtures.corpus.querySets.map(qs => qs.name -> qs.queries).toMap, Map.empty, Map.empty)
    for (set <- pc.queries.keys) {
      val (_, counts) = SparkJobCounter(spark)(Experiments.initColumnExperiment(pc, set))
      assert(counts.jobs <= 1, s"initColumnExperiment $set: ${counts.jobs} Spark jobs")
      val (_, executions) = SqlExecutionCounter(spark)(Experiments.initColumnExperiment(pc, set))
      assert(executions == 0, s"initColumnExperiment $set: $executions SQL query executions")
    }
  }

  test("Josie ranking breaks overlap ties at the cut-off by the lower tableId, as the DataFrame reference does") {
    import spark.implicits._
    // Query values a, b, c. Table 2 overlaps 3; tables 9, 3, 7 and 5 tie
    // at 2 (table 7 repeats b, table 5 holds a and c in both columns);
    // table 4 spreads a, b, c over three columns, so its best column
    // overlaps 1; table 6 holds none.
    val tables = Seq(
      9L -> Seq(Seq("a", "x"), Seq("b", "y")),
      2L -> Seq(Seq("a", "x"), Seq("b", "y"), Seq("c", "z")),
      7L -> Seq(Seq("b", "x"), Seq("b", "y"), Seq("c", "z")),
      4L -> Seq(Seq("a", "x", "y"), Seq("x", "b", "y"), Seq("x", "y", "c")),
      3L -> Seq(Seq("x", "c"), Seq("y", "a")),
      5L -> Seq(Seq("a", "c"), Seq("c", "a"), Seq("q", "q")),
      6L -> Seq(Seq("x", "y")))
    val cells = tables.flatMap { case (t, rows) =>
      rows.zipWithIndex.flatMap { case (vs, r) => vs.zipWithIndex.map { case (v, c) => Cell(t, c, r.toLong, v) } }
    }.toDS().toDF()
    val pls    = InvertedIndex.postingLists(cells).cache()
    val values = Seq("a", "b", "c", "a")
    val items  = MateSpark.fetchValues(pls, Seq(values)).head
    for (n <- 0 to tables.size + 1) {
      val ref = DataFrameBaselines.topTablesByOverlap(pls, values, n).collect().map(_.getLong(0)).toSeq
      assert(JosieLite.topTablesByOverlap(items, n) == ref, s"n = $n")
    }
    assert(JosieLite.topTablesByOverlap(items, 3) == Seq(2L, 3L, 5L))
    assert(JosieLite.topTablesByOverlap(items, tables.size) == Seq(2L, 3L, 5L, 7L, 9L, 4L))
    pls.unpersist()
  }

  test("baseline runtimes carry coherent metrics") {
    val q = Fixtures.queries2.head
    val mcr = Mcr.run(Fixtures.pls, Fixtures.rowVals, q, k)
    assert(mcr.metrics.rowsChecked == mcr.metrics.tpRows + mcr.metrics.fpRows)
    val sj = JosieLite.scrJosie(Fixtures.pls, Fixtures.rowVals, q, k)
    assert(sj.metrics.rowsChecked == sj.metrics.tpRows + sj.metrics.fpRows)
    // posting-list items: SCR-Josie's of the init column, MCR-Josie's of every column, as MCR's
    val initCol = repro.core.InitColumn.byCardinality(q.rows)
    val initValues = q.tuples.map(t => SuperKeyHash.normalize(t(initCol)))
    assert(sj.plItemsFetched == MateSpark.fetchValues(Fixtures.pls, Seq(initValues)).head.length)
    assert(JosieLite.mcrJosie(Fixtures.pls, Fixtures.rowVals, q, k).plItemsFetched == mcr.plItemsFetched)
  }
}
