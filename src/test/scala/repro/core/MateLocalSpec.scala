package repro.core

import repro.{Fixtures, SparkSpec}
import repro.corpus.CorpusGen.QueryTable
import repro.hash.Xash

class MateLocalSpec extends SparkSpec {

  private val hash = Xash(128, 4)
  private val k    = 5

  private def fetchRows(t: Long): Map[Long, Map[Int, String]] =
    Fixtures.localTables.getOrElse(t, Map.empty)

  test("Algorithm 1 returns the ground-truth joinability scores") {
    for (q <- Fixtures.allQueries) {
      val r = MateLocal.discover(Fixtures.plItems(q, Some(hash)), q, Some(hash), fetchRows, k)
      val expected = Fixtures.gtTopK(q, k)
      assert(r.topK.map(_._2) == expected.map(_._2), s"query ${q.set}/${q.id}")
    }
  }

  test("sequential and distributed MATE agree on the top-k scores") {
    for (q <- Fixtures.allQueries) {
      val local = MateLocal.discover(Fixtures.plItems(q, Some(hash)), q, Some(hash), fetchRows, k)
      val dist  = MateSpark.run(Fixtures.spark, Fixtures.pls, Fixtures.rowVals,
        Some(Fixtures.rowSk(hash)), Some(hash), q, k)
      assert(local.topK.map(_._2) == dist.topK.map(_._2), s"query ${q.set}/${q.id}")
    }
  }

  test("table-filtering rules change work, not results (§6.2 rules are safe)") {
    for (q <- Fixtures.allQueries) {
      val pls = Fixtures.plItems(q, Some(hash))
      val on  = MateLocal.discover(pls, q, Some(hash), fetchRows, k, useTableFilter = true)
      val off = MateLocal.discover(pls, q, Some(hash), fetchRows, k, useTableFilter = false)
      assert(on.topK.map(_._2) == off.topK.map(_._2))
      assert(on.counters.plItemsSeen <= off.counters.plItemsSeen)
      assert(on.counters.rowsVerified <= off.counters.rowsVerified)
    }
  }

  test("rule 1 halts the scan once sorted PL counts cannot beat j_k (k=1)") {
    val q = Fixtures.allQueries.maxBy(q => Fixtures.groundTruthJ(q).values.maxOption.getOrElse(0L))
    val pls = Fixtures.plItems(q, Some(hash))
    val r = MateLocal.discover(pls, q, Some(hash), fetchRows, k = 1)
    val tablesWithPls = pls.map(_.tableId).distinct.size
    assert(r.counters.tablesPrunedRule1 + r.counters.tablesEvaluated <= tablesWithPls)
    assert(r.topK.map(_._2) == Fixtures.gtTopK(q, 1).map(_._2))
  }

  test("SCR mode (no super key) yields identical top-k with more verification work") {
    for (q <- Fixtures.allQueries.take(2)) {
      val pls = Fixtures.plItems(q, Some(hash))
      val filtered = MateLocal.discover(pls, q, Some(hash), fetchRows, k)
      val scr      = MateLocal.discover(pls, q, None, fetchRows, k)
      assert(filtered.topK.map(_._2) == scr.topK.map(_._2))
      assert(filtered.counters.rowsPassedFilter <= scr.counters.rowsPassedFilter)
    }
  }

  test("counters are internally consistent") {
    val q = Fixtures.allQueries.head
    val r = MateLocal.discover(Fixtures.plItems(q, Some(hash)), q, Some(hash), fetchRows, k)
    val c = r.counters
    assert(c.rowsVerified <= c.rowsPassedFilter)
    assert(c.cellsCompared >= c.rowsVerified)
    assert(c.tablesEvaluated >= r.topK.size)
  }

  test("empty posting lists yield an empty result") {
    val q = Fixtures.allQueries.head
    val r = MateLocal.discover(Seq.empty, q, Some(hash), fetchRows, k)
    assert(r.topK.isEmpty)
    assert(r.counters.plItemsSeen == 0)
  }

  test("a query table with no rows yields an empty result and zero counters") {
    val q = QueryTable("empty", 0, Seq.empty)
    for (h <- Seq(Some(hash), None)) {
      val r = MateLocal.discover(Fixtures.plItems(q, h), q, h, fetchRows, k)
      assert(r.topK.isEmpty)
      assert(r.counters == MateLocal.Counters())
    }
  }
}
