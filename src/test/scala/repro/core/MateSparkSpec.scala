package repro.core

import org.apache.spark.{SparkJobCounter, SqlExecutionCounter}
import org.apache.spark.sql.DataFrame
import org.apache.spark.storage.StorageLevel
import repro.{Fixtures, Oracle, SparkSpec}
import repro.baselines.{JosieLite, Mcr}
import repro.corpus.CorpusGen.{Cell, QueryTable}
import repro.hash.{BloomHashes, Hashes, StandardHashes, SuperKeyHash, Xash}
import repro.index.InvertedIndex
import repro.util.Bits

class MateSparkSpec extends SparkSpec {

  private val k = 5
  private def hashes: Seq[SuperKeyHash] = Seq(
    Xash(128, 4), BloomHashes.Bf(128, 8), BloomHashes.Ht(128),
    StandardHashes.Md5(128), StandardHashes.SimHash(128))

  private def runWith(q: repro.corpus.CorpusGen.QueryTable, h: Option[SuperKeyHash]) =
    MateSpark.run(Fixtures.spark, Fixtures.pls, Fixtures.rowVals,
      h.map(Fixtures.rowSk), h, q, k)

  test("SCR (no filter) recovers the ground-truth top-k exactly") {
    for (q <- Fixtures.allQueries) {
      val r = runWith(q, None)
      assert(r.topK == Fixtures.gtTopK(q, k), s"query ${q.set}/${q.id}")
    }
  }

  for (h <- hashes) {
    test(s"[$h] filtered discovery returns the same top-k as ground truth (no false negatives end-to-end)") {
      for (q <- Fixtures.allQueries) {
        val r = runWith(q, Some(h))
        assert(r.topK == Fixtures.gtTopK(q, k), s"query ${q.set}/${q.id}")
      }
    }
  }

  test("metrics: rowsChecked = TP + FP and cost counters are coherent") {
    for (q <- Fixtures.allQueries; h <- Seq(Some(Xash(128, 4)), None)) {
      val r = runWith(q, h)
      val m = r.metrics
      assert(m.rowsChecked == m.tpRows + m.fpRows)
      assert(m.precision >= 0.0 && m.precision <= 1.0)
      assert(m.cellsCompared >= m.rowsChecked) // ≥1 cell per verified row
      assert(m.verifiedPairs <= m.candidatePairs)
      assert(m.rowsChecked <= m.verifiedPairs)
      if (h.isDefined) assert(m.maskChecks == m.candidatePairs) else assert(m.maskChecks == 0)
    }
  }

  test("row filtering never increases verification work: XASH ≤ SCR on every query") {
    for (q <- Fixtures.allQueries) {
      val scr  = runWith(q, None).metrics
      val xash = runWith(q, Some(Xash(128, 4))).metrics
      assert(xash.rowsChecked <= scr.rowsChecked)
      assert(xash.cellsCompared <= scr.cellsCompared)
    }
  }

  test("XASH prunes at least as well as a raw digest on aggregate (paper §7.3 shape)") {
    val totals = Seq(Xash(128, 4), StandardHashes.Md5(128)).map { h =>
      Fixtures.allQueries.map(q => runWith(q, Some(h)).metrics.fpRows).sum
    }
    assert(totals(0) <= totals(1), s"XASH FPs ${totals(0)} vs MD5 FPs ${totals(1)}")
  }

  test("top-1 joinability score is oracle-verified via SQL INTERSECT") {
    import spark.implicits._
    val q = Fixtures.queries2.head
    val r = runWith(q, Some(Xash(128, 4)))
    val (topTable, j) = r.topK.head
    // materialise the winning candidate table as columns c0..cn
    val rows = Fixtures.localTables(topTable)
    val nCols = rows.values.head.size
    val cand = rows.values.toSeq.map(m => (0 until nCols).map(m(_)))
      .map { case s => (s.lift(0).getOrElse(""), s.lift(1).getOrElse(""), s.lift(2).getOrElse(""),
                        s.lift(3).getOrElse(""), s.lift(4).getOrElse(""), s.lift(5).getOrElse("")) }
      .toDF("c0", "c1", "c2", "c3", "c4", "c5")
    val qt = q.tuples.map(t => (t(0).toLowerCase.trim, t(1).toLowerCase.trim)).toDF("q0", "q1")
    val perms = for { a <- 0 until nCols; b <- 0 until nCols if a != b }
      yield s"(SELECT count(*) FROM (SELECT DISTINCT q0, q1 FROM qt INTERSECT SELECT DISTINCT c$a AS q0, c$b AS q1 FROM cand))"
    Oracle.assertEquivalent(
      Seq(j).toDF("j"),
      s"SELECT greatest(${perms.mkString(", ")}) AS j",
      "qt" -> qt, "cand" -> cand)
  }

  test("init column selection feeds the dataflow: candidates only match the lowest-cardinality column's values") {
    val q = Fixtures.queries2.head
    val initCol = InitColumn.byCardinality(q.rows)
    val queryDf = MateSpark.prepareQuery(spark, q)
    val initVals = queryDf.select("initValue").collect().map(_.getString(0)).toSet
    val expected = q.tuples.map(t => t(initCol).toLowerCase.trim).toSet
    assert(initVals == expected)
  }

  test("fetch returns the distinct (tableId, rowId, init value) of the candidate pairs") {
    for (q <- Fixtures.allQueries) {
      val initCol = InitColumn.byCardinality(q.rows)
      val fromCandidates = MateSpark.candidates(Fixtures.pls, MateSpark.prepareQuery(spark, q)).collect()
        .map(r => (r.getLong(0), r.getLong(1), r.getSeq[String](3)(initCol))).toSet
      val fetched = MateSpark.fetch(Fixtures.pls, q)
      assert(fetched.length == fetched.distinct.length, s"query ${q.set}/${q.id}")
      assert(fetched.toSet == fromCandidates, s"query ${q.set}/${q.id}")
    }
  }

  test("candidates are distinct (row retrieved once per query tuple even with repeated hits)") {
    val q = Fixtures.queries2.head
    val cand = MateSpark.candidates(Fixtures.pls, MateSpark.prepareQuery(spark, q))
    assert(cand.count() ==
      cand.select("tableId", "rowId", "qTupleId").distinct().count())
  }

  test("k caps the result list") {
    for (kk <- Seq(1, 3, 10)) {
      val q = Fixtures.queries2.head
      val r = MateSpark.run(Fixtures.spark, Fixtures.pls, Fixtures.rowVals,
        Some(Fixtures.rowSk(Xash(128, 4))), Some(Xash(128, 4)), q, kk)
      assert(r.topK.size <= kk)
      assert(r.topK == Fixtures.gtTopK(q, kk))
    }
  }

  test("registry-built hashes all agree on top-k (every hash is FN-free end-to-end)") {
    val q = Fixtures.queries3.head
    val expected = Fixtures.gtTopK(q, k)
    for (name <- Hashes.all) {
      val h = Hashes.byName(name, 128, Fixtures.corpus.avgColumns, Fixtures.corpus.uniqueValues)
      val r = runWith(q, Some(h))
      assert(r.topK == expected, s"hash $name diverged")
    }
  }

  test("one MateSpark.run launches exactly 1 Spark job, with and without a hash") {
    val q     = Fixtures.queries3.head
    val cores = spark.sparkContext.defaultParallelism
    for (h <- Seq(Some(Xash(128, 4)), None)) {
      runWith(q, h) // materialises the cached index parts the query reads
      val (_, counts) = SparkJobCounter(spark)(runWith(q, h))
      assert(counts.jobs == 1, s"${h.getOrElse("SCR")}: ${counts.jobs} Spark jobs")
      // and that job runs at most one task per core
      assert(counts.tasks >= 1 && counts.tasks <= cores, s"${h.getOrElse("SCR")}: ${counts.tasks} tasks on $cores cores")
    }
  }

  test("one MateSpark.run launches exactly 1 Spark job when the row super keys are not aligned with the row values") {
    val q        = Fixtures.queries3.head
    val h        = Xash(128, 4)
    val expected = runWith(q, Some(h))
    val n        = Fixtures.rowVals.queryExecution.toRdd.getNumPartitions
    // cached keys in more partitions than the row values, and in as many but placed round-robin
    for ((how, keys) <- Seq("mismatched" -> Fixtures.rowSk(h).repartition(n + 1), "scattered" -> Fixtures.rowSk(h).repartition(n))) {
      val rowSk = keys.cache()
      rowSk.count()
      def call() = MateSpark.run(spark, Fixtures.pls, Fixtures.rowVals, Some(rowSk), Some(h), q, k)
      call()
      val (r, counts) = SparkJobCounter(spark)(call())
      assert(counts.jobs == 1, s"$how: ${counts.jobs} Spark jobs")
      assert(r.topK == expected.topK, how)
      assert(r.metrics.copy(millis = 0) == expected.metrics.copy(millis = 0), how)
      rowSk.unpersist()
    }
  }

  test("fetchAll fetches every query's items in one Spark job, as fetch does per query") {
    val (all, counts) = SparkJobCounter(spark)(MateSpark.fetchAll(Fixtures.pls, Fixtures.allQueries))
    assert(counts.jobs == 1)
    assert(all.size == Fixtures.allQueries.size)
    for ((q, items) <- Fixtures.allQueries.zip(all))
      assert(items.toSeq == MateSpark.fetch(Fixtures.pls, q).toSeq, s"query ${q.set}/${q.id}")
  }

  test("one MateSpark.run plans no SQL query, with and without a hash") {
    val q = Fixtures.queries3.head
    val (_, count) = SqlExecutionCounter(spark)(Fixtures.pls.count())
    assert(count == 1, "the counter sees a DataFrame action")
    for (h <- Seq(Some(Xash(128, 4)), None)) {
      runWith(q, h)
      val (_, executions) = SqlExecutionCounter(spark)(runWith(q, h))
      assert(executions == 0, s"${h.getOrElse("SCR")}: $executions SQL query executions")
    }
  }

  test("run reads the index relations' columns by name and needs no cache") {
    // discover and the baselines too, each equal to its call on the cached relations
    // a new source plan, so no cached plan matches the relations built on it
    val cells = spark.createDataFrame(Fixtures.corpus.cells.rdd, Fixtures.corpus.cells.schema)
    for (h <- Seq(Some(Xash(128, 4)), None)) {
      val reordered = (Fixtures.pls.select("rowId", "colId", "value", "tableId"),
        Fixtures.rowVals.select("vals", "rowId", "tableId"),
        h.map(Fixtures.rowSk(_).select("sk", "rowId", "tableId")))
      val uncached = (InvertedIndex.postingLists(cells), InvertedIndex.rowValues(cells),
        h.map(InvertedIndex.rowSuperKeys(cells, _)))
      for (df <- Seq(uncached._1, uncached._2) ++ uncached._3) assert(df.storageLevel == StorageLevel.NONE)
      // as many partitions as the row super keys, but the rows placed round-robin
      val n         = Fixtures.rowVals.queryExecution.toRdd.getNumPartitions
      val scattered = (Fixtures.pls, Fixtures.rowVals.repartition(n), h.map(Fixtures.rowSk))
      for (df <- scattered._2 +: scattered._3.toSeq) assert(df.queryExecution.toRdd.getNumPartitions == n)
      // row super keys in more partitions than the row values, so the pass reads the values alone
      val mismatched = (Fixtures.pls, Fixtures.rowVals, h.map(Fixtures.rowSk(_).repartition(n + 1)))
      for (df <- mismatched._3) assert(df.queryExecution.toRdd.getNumPartitions != n)
      for (q <- Fixtures.allQueries) {
        val expected     = runWith(q, h)
        val expectedDisc = discoverCached(q, h)
        // the baselines read no super keys: once, with the SCR inputs
        val expectedBase = if (h.isEmpty) baselinesOn(Fixtures.pls, Fixtures.rowVals, q) else Nil
        for ((how, (pls, rowVals, rowSk)) <- Seq("reordered" -> reordered, "uncached" -> uncached,
               "scattered" -> scattered, "mismatched" -> mismatched)) {
          val what = s"query ${q.set}/${q.id} ${h.getOrElse("SCR")} $how"
          val r    = MateSpark.run(spark, pls, rowVals, rowSk, h, q, k)
          assert(r.topK == expected.topK, what)
          assert(r.metrics.copy(millis = 0) == expected.metrics.copy(millis = 0), what)
          val disc = discoverOn(pls, rowVals, rowSk, q, h)
          assert(disc.topK == expectedDisc.topK, s"discover $what")
          assert(disc.metrics.copy(millis = 0) == expectedDisc.metrics.copy(millis = 0), s"discover $what")
          if (h.isEmpty) assert(baselinesOn(pls, rowVals, q) == expectedBase, s"baselines $what")
        }
      }
    }
  }

  /** MCR's, SCR-Josie's and MCR-Josie's top-k, PL items and metrics
    * without `millis`.
    */
  private def baselinesOn(pls: DataFrame, rowVals: DataFrame, q: QueryTable): Seq[(Seq[(Long, Long)], Long, MateSpark.Metrics)] = {
    val mcr = Mcr.run(pls, rowVals, q, k)
    val sj  = JosieLite.scrJosie(pls, rowVals, q, k)
    val mj  = JosieLite.mcrJosie(pls, rowVals, q, k)
    Seq((mcr.topK, mcr.plItemsFetched, mcr.metrics), (sj.topK, sj.plItemsFetched, sj.metrics),
      (mj.topK, mj.plItemsFetched, mj.metrics)).map { case (t, n, m) => (t, n, m.copy(millis = 0)) }
  }

  /** [[MateSpark.discover]] on cached candidates, as the benches call it. */
  private def discoverOn(pls: DataFrame, rowVals: DataFrame, rowSk: Option[DataFrame], q: QueryTable,
                         h: Option[SuperKeyHash]): MateSpark.Result = {
    val cand = MateSpark.candidates(pls, MateSpark.prepareQuery(spark, q)).cache()
    cand.count()
    val filter = for (sk <- rowSk; x <- h) yield (sk, MateSpark.querySuperKeys(spark, q, x))
    try MateSpark.discover(cand, rowVals, filter, k)
    finally cand.unpersist()
  }

  private def discoverCached(q: QueryTable, h: Option[SuperKeyHash]): MateSpark.Result =
    discoverOn(Fixtures.pls, Fixtures.rowVals, h.map(Fixtures.rowSk), q, h)

  test("run, discover and Algorithm 1 agree: same top-k, and run and discover count the same work") {
    for (q <- Fixtures.allQueries; h <- Seq(Some(Xash(128, 4)), None)) {
      val what  = s"query ${q.set}/${q.id} ${h.getOrElse("SCR")}"
      val run   = runWith(q, h)
      val disc  = discoverCached(q, h)
      val local = MateLocal.discover(Fixtures.plItems(q, h), q, h,
        t => Fixtures.localTables.getOrElse(t, Map.empty), k, useTableFilter = false)
      assert(run.topK == disc.topK, what)
      assert(run.metrics.copy(millis = 0) == disc.metrics.copy(millis = 0), what)
      assert(local.topK == run.topK, what)
    }
  }

  test("run finds each (row, tuple) candidate pair once: the pairs of fetch, and Algorithm 1's top-k") {
    import spark.implicits._
    // t0 r0 holds init value "a" twice; t1's rows hold the init values of
    // both tuples; t2 r1 holds "a" without "x" (a false positive for q2).
    val rows = Seq(
      (0L, 0L, Seq("a", "x", "a")), (0L, 1L, Seq("b", "y", "q")),
      (1L, 0L, Seq("a", "b", "x", "y")), (1L, 1L, Seq("b", "a", "y", "x")),
      (2L, 0L, Seq("z", "z", "z")), (2L, 1L, Seq("a", "q", "q")))
    val cells   = rows.flatMap { case (t, r, vs) => vs.zipWithIndex.map { case (v, c) => Cell(t, c, r, v) } }.toDS().toDF()
    val local   = rows.groupMap(_._1) { case (_, r, vs) => r -> vs.indices.zip(vs).toMap }.view.mapValues(_.toMap).toMap
    val pls     = InvertedIndex.postingLists(cells).cache()
    val rowVals = InvertedIndex.rowValues(cells).cache()
    val xash    = Xash(128, 4)
    val rowSk   = InvertedIndex.rowSuperKeys(cells, xash).cache()
    val sks     = rowSk.collect().map(r => (r.getLong(0), r.getLong(1)) -> r.getAs[Array[Byte]]("sk")).toMap
    val q2 = QueryTable("crafted", 0, Seq(Seq("a", "x"), Seq("b", "y")))
    val q1 = QueryTable("crafted", 1, Seq(Seq("a")))
    for ((q, pairCount, expected) <- Seq(
           (q2, 7, Seq((0L, 2L), (1L, 2L))),
           (q1, 4, Seq((0L, 1L), (1L, 1L), (2L, 1L))));
         h <- Seq(Some(xash), None)) {
      val what    = s"|Q| = ${q.qSize} ${h.getOrElse("SCR")}"
      val tuples  = q.tuples.map(_.map(SuperKeyHash.normalize))
      val initCol = InitColumn.byCardinality(q.rows)
      val items   = MateSpark.fetch(pls, q)
      val pairs   = items.toSeq.flatMap { case (t, r, v) => tuples.indices.filter(tuples(_)(initCol) == v).map((t, r, _)) }
      val masked  = pairs.filter { case (t, r, i) => h.forall(x => Bits.subsetOf(x.superKey(tuples(i)), sks((t, r)))) }
      val plItems = items.toSeq.map { case (t, r, v) => MateLocal.PlItem(t, r, v, sks((t, r))) }
      val seq     = MateLocal.discover(plItems, q, h, local.getOrElse(_, Map.empty), k, useTableFilter = false)
      val r       = MateSpark.run(spark, pls, rowVals, h.map(_ => rowSk), h, q, k)
      assert(pairs.distinct.size == pairCount, what)
      assert(r.metrics.candidatePairs == pairCount, what)
      assert(r.metrics.verifiedPairs == masked.size, what)
      assert(seq.counters.rowsPassedFilter == masked.size, what)
      assert(r.topK == expected, what)
      assert(seq.topK == expected, what)
    }
    Seq(pls, rowVals, rowSk).foreach(_.unpersist())
  }

  private val zero = MateSpark.Metrics(0, 0, 0, 0, 0, 0, 0, 0)

  test("a query whose values are absent from the corpus yields an empty top-k and zero counters") {
    val q = QueryTable("absent", 0, Seq(Seq("no such value", "none either"), Seq("nor this", "nor that")))
    for (h <- Seq(Some(Xash(128, 4)), None); r <- Seq(runWith(q, h), discoverCached(q, h))) {
      assert(r.topK.isEmpty)
      assert(r.metrics.copy(millis = 0) == zero)
    }
  }

  test("a query table with no rows yields an empty top-k and zero counters") {
    val q = QueryTable("empty", 0, Seq.empty)
    assert(q.qSize == 0)
    assert(MateSpark.fetch(Fixtures.pls, q).isEmpty)
    for (h <- Seq(Some(Xash(128, 4)), None)) {
      val r = runWith(q, h)
      assert(r.topK.isEmpty)
      assert(r.metrics.copy(millis = 0) == zero)
    }
    // MCR, SCR-Josie and MCR-Josie: no items fetched either
    assert(baselinesOn(Fixtures.pls, Fixtures.rowVals, q) == Seq.fill(3)((Nil, 0L, zero)))
  }
}
