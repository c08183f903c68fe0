package repro.baselines

import repro.{Fixtures, SparkSpec}
import repro.core.MateSpark

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
    r.topK.foreach { case (t, j) => assert(j <= gt.getOrElse(t, 0L) + 0L || j == gt(t)) }
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
    val values = q.tuples.map(t => t(initCol).toLowerCase.trim)
    val ranked = JosieLite.topTablesByOverlap(Fixtures.pls, values, Fixtures.corpus.nTables)
      .collect().map(_.getLong(0)).toSet
    // every table with positive joinability must appear in the full ranking
    Fixtures.groundTruthJ(q).keys.foreach(t => assert(ranked.contains(t)))
  }

  test("baseline runtimes carry coherent metrics") {
    val q = Fixtures.queries2.head
    val mcr = Mcr.run(spark, Fixtures.pls, Fixtures.rowVals, q, k)
    assert(mcr.metrics.rowsChecked == mcr.metrics.tpRows + mcr.metrics.fpRows)
    val sj = JosieLite.scrJosie(spark, Fixtures.pls, Fixtures.rowVals, q, k)
    assert(sj.metrics.rowsChecked == sj.metrics.tpRows + sj.metrics.fpRows)
  }
}
