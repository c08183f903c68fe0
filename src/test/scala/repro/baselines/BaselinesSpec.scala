package repro.baselines

import org.apache.spark.{SparkJobCounter, SqlExecutionCounter}
import repro.{Fixtures, SparkSpec}
import repro.core.MateSpark
import repro.hash.SuperKeyHash

class BaselinesSpec extends SparkSpec {

  private val k = 5

  test("MCR intersection keeps every joinable row: top-k equals SCR/ground truth") {
    for (q <- Fixtures.allQueries) {
      val r = Mcr.run(spark, Fixtures.pls, Fixtures.rowVals, q, k)
      assert(r.topK == Fixtures.gtTopK(q, k), s"query ${q.set}/${q.id}")
    }
  }

  test("MCR fetches posting lists for every query column (the |Q|-fold cost of §3)") {
    val q2 = Fixtures.queries2.head
    val q3 = Fixtures.queries3.head
    val r2 = Mcr.run(spark, Fixtures.pls, Fixtures.rowVals, q2, k)
    val r3 = Mcr.run(spark, Fixtures.pls, Fixtures.rowVals, q3, k)
    assert(r2.plItemsFetched > 0 && r3.plItemsFetched > 0)
    // MCR fetch volume is at least the single-column (SCR) fetch volume
    val scrCand = MateSpark.candidates(Fixtures.pls, MateSpark.prepareQuery(spark, q2)).count()
    assert(r2.plItemsFetched >= scrCand)
  }

  test("MCR verification work is bounded by SCR's (intersection only removes rows)") {
    for (q <- Fixtures.allQueries.take(2)) {
      val mcr = Mcr.run(spark, Fixtures.pls, Fixtures.rowVals, q, k)
      val scr = MateSpark.run(spark, Fixtures.pls, Fixtures.rowVals, None, None, q, k)
      assert(mcr.metrics.rowsChecked <= scr.metrics.rowsChecked)
    }
  }

  test("SCR-Josie with full candidate coverage equals ground truth") {
    for (q <- Fixtures.allQueries) {
      val r = JosieLite.scrJosie(spark, Fixtures.pls, Fixtures.rowVals, q, k,
        candidateFactor = Fixtures.corpus.nTables / k + 1)
      assert(r.topK == Fixtures.gtTopK(q, k), s"query ${q.set}/${q.id}")
    }
  }

  test("SCR-Josie with a narrow candidate set may miss tables but never overstates j") {
    val q  = Fixtures.queries2.head
    val gt = Fixtures.groundTruthJ(q)
    val r  = JosieLite.scrJosie(spark, Fixtures.pls, Fixtures.rowVals, q, k, candidateFactor = 1)
    r.topK.foreach { case (t, j) => assert(j == gt(t)) } // exact verification inside candidates
  }

  test("MCR-Josie intersects per-column rankings and verifies exactly") {
    val q = Fixtures.queries2.head
    val gt = Fixtures.groundTruthJ(q)
    val r = JosieLite.mcrJosie(spark, Fixtures.pls, Fixtures.rowVals, q, k,
      candidateFactor = Fixtures.corpus.nTables / k + 1)
    r.topK.foreach { case (t, j) => assert(j == gt(t)) }
  }

  test("Josie overlap ranking is a superset-score of true joinability (single-column bound)") {
    val q = Fixtures.queries2.head
    val initCol = repro.core.InitColumn.byCardinality(q.rows)
    val values = q.tuples.map(t => SuperKeyHash.normalize(t(initCol)))
    val ranked = JosieLite.topTablesByOverlap(Fixtures.pls, values, Fixtures.corpus.nTables)
      .collect().map(_.getLong(0)).toSet
    // every table with positive joinability must appear in the full ranking
    Fixtures.groundTruthJ(q).keys.foreach(t => assert(ranked.contains(t)))
  }

  test("MCR and both Josie adaptations equal their DataFrame references: PL items, top-k and metrics") {
    def untimed(m: MateSpark.Metrics) = m.copy(millis = 0)
    val (pls, rowVals) = (Fixtures.pls, Fixtures.rowVals)
    for (q <- Fixtures.allQueries) {
      val what = s"query ${q.set}/${q.id}"
      val mcr  = Mcr.run(spark, pls, rowVals, q, k)
      val ref  = DataFrameBaselines.mcr(spark, pls, rowVals, q, k)
      assert(mcr.copy(metrics = untimed(mcr.metrics)) == ref.copy(metrics = untimed(ref.metrics)), s"MCR $what")
      for (f <- Seq(1, 5)) {
        val sj    = JosieLite.scrJosie(spark, pls, rowVals, q, k, f)
        val sjRef = DataFrameBaselines.scrJosie(spark, pls, rowVals, q, k, f)
        assert(sj.copy(metrics = untimed(sj.metrics)) == sjRef.copy(metrics = untimed(sjRef.metrics)), s"SCR-Josie x$f $what")
        val mj    = JosieLite.mcrJosie(spark, pls, rowVals, q, k, f)
        val mjRef = DataFrameBaselines.mcrJosie(spark, pls, rowVals, q, k, f)
        assert(mj.copy(metrics = untimed(mj.metrics)) == mjRef.copy(metrics = untimed(mjRef.metrics)), s"MCR-Josie x$f $what")
      }
    }
  }

  test("one Mcr.run launches at most 2 Spark jobs and plans no SQL query") {
    val q = Fixtures.queries3.head
    Mcr.run(spark, Fixtures.pls, Fixtures.rowVals, q, k) // materialises the cached index parts the query reads
    val (_, counts) = SparkJobCounter(spark)(Mcr.run(spark, Fixtures.pls, Fixtures.rowVals, q, k))
    assert(counts.jobs <= 2, s"${counts.jobs} Spark jobs")
    val (_, executions) = SqlExecutionCounter(spark)(Mcr.run(spark, Fixtures.pls, Fixtures.rowVals, q, k))
    assert(executions == 0, s"$executions SQL query executions")
  }

  test("baseline runtimes carry coherent metrics") {
    val q = Fixtures.queries2.head
    val mcr = Mcr.run(spark, Fixtures.pls, Fixtures.rowVals, q, k)
    assert(mcr.metrics.rowsChecked == mcr.metrics.tpRows + mcr.metrics.fpRows)
    val sj = JosieLite.scrJosie(spark, Fixtures.pls, Fixtures.rowVals, q, k)
    assert(sj.metrics.rowsChecked == sj.metrics.tpRows + sj.metrics.fpRows)
  }
}
