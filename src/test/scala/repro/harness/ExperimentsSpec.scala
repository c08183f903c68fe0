package repro.harness

import repro.{Fixtures, SparkSpec}
import repro.corpus.CorpusGen
import repro.hash.{Hashes, SuperKeyHash, Xash}
import repro.index.InvertedIndex

class ExperimentsSpec extends SparkSpec {

  private lazy val pc = Experiments.prepare(spark, Fixtures.corpus)

  test("prepare fetches every query's items and copies the rows locally") {
    for ((set, qs) <- pc.queries; q <- qs) assert(pc.localPls.contains((set, q.id)))
    assert(pc.localRows.keySet.nonEmpty)
    // local row copy matches the distributed row count
    assert(pc.localRows.map(_._2.size).sum == pc.rowVals.count())
  }

  test("prepare persists the posting lists and row values, nothing per query") {
    // a corpus of its own: the shared fixture corpus's index may be cached already
    val corpus = CorpusGen.generate(spark, Fixtures.config, Fixtures.queryConfigs)
    val sc = spark.sparkContext
    val before = sc.getPersistentRDDs.keySet
    val p = Experiments.prepare(spark, corpus)
    assert(sc.getPersistentRDDs.keySet.diff(before).size == 2)
    Seq(p.pls, p.rowVals, corpus.cells).foreach(_.unpersist())
  }

  test("runConfig (SCR) reports coherent averaged metrics") {
    val set = pc.queries.keys.head
    val r = Experiments.runConfig(spark, pc, set, None, None)
    assert(r.config == "SCR" && r.bits == 0)
    assert(r.cellsCompared > 0 && r.candidatePairs > 0)
    assert(r.precision >= 0 && r.precision <= 1)
    assert(r.localMicros > 0)
  }

  test("runConfig with XASH filters at least as hard as SCR") {
    val h = Xash(128, 4)
    pc.rowVals.count() // cached before the keys, as prepare's callers do
    val sk = InvertedIndex.rowSuperKeys(Fixtures.corpus.cells, h).cache()
    val skMap = sk.collect().map(r => (r.getLong(0), r.getLong(1)) -> r.getAs[Array[Byte]]("sk")).toMap
    val set = pc.queries.keys.head
    val scr  = Experiments.runConfig(spark, pc, set, None, None)
    val xash = Experiments.runConfig(spark, pc, set, Some(h), Some(sk), Some(skMap))
    assert(xash.cellsCompared <= scr.cellsCompared)
    assert(xash.avgTop1J == scr.avgTop1J) // no false negatives ⇒ same top-1 score
    sk.unpersist()
  }

  test("runLocal agrees with ground truth regardless of filter") {
    val h = Xash(128, 4)
    pc.rowVals.count() // cached before the keys, as prepare's callers do
    val sk = InvertedIndex.rowSuperKeys(Fixtures.corpus.cells, h).cache()
    val skMap = sk.collect().map(r => (r.getLong(0), r.getLong(1)) -> r.getAs[Array[Byte]]("sk")).toMap
    for ((set, qs) <- pc.queries; q <- qs) {
      val micros = Experiments.runLocal(pc, set, q, Some(h), Some(skMap))
      assert(micros >= 0)
    }
    sk.unpersist()
  }

  test("setStats reports each set with positive joinability") {
    val stats = Experiments.setStats(spark, pc)
    assert(stats.map(_.set).toSet == pc.queries.keySet)
    stats.foreach { s =>
      assert(s.nQueries > 0)
      assert(s.avgCardinality > 0)
      assert(s.avgJoinability > 0)
    }
  }

  test("initColumnExperiment bounds: Best ≤ Cardinality ≤ Worst") {
    val set = pc.queries.keys.head
    val rs = Experiments.initColumnExperiment(pc, set).map(r => r.heuristic -> r.avgPlItems).toMap
    assert(rs("Best") <= rs("Cardinality") + 1e-9)
    assert(rs("Cardinality") <= rs("Worst") + 1e-9)
    assert(rs("Best") <= rs("TLS") + 1e-9 && rs("Best") <= rs("Column Order") + 1e-9)
  }

  test("initColumnExperiment counts each query column's posting-list items as a per-column join does") {
    import spark.implicits._
    for (set <- pc.queries.keys) {
      val expected = pc.queries(set).map { q =>
        val tuples = q.tuples.map(_.map(SuperKeyHash.normalize))
        (0 until q.qSize).map(i => pc.pls.join(tuples.map(_(i)).distinct.toDF("value"), "value").count())
      }
      assert(Experiments.columnPlItems(pc, set) == expected, set)
      val best = Experiments.initColumnExperiment(pc, set).find(_.heuristic == "Best").get.avgPlItems
      assert(best == expected.map(_.min.toDouble).sum / expected.size, set)
    }
  }

  test("hashGrid covers the paper's Table 2 configurations") {
    val grid = Experiments.hashGrid(5.0, 1000000L)
    val names = grid.map(h => (h.name, h.bits))
    assert(names.count(_._1 == "XASH") == 3)
    assert(names.contains(("MD5", 128)) && names.contains(("Murmur", 128)) && names.contains(("City", 128)))
    assert(!names.contains(("MD5", 512))) // 128-only families, as in the paper
    assert(grid.size == 3 + 5 * 3)
    // Hashes.byName and the grid share one XASH α rule
    for (c <- Seq(1000L, 8000L, 1000000L, 700000000L); b <- Seq(128, 256, 512)) {
      val inGrid = Experiments.hashGrid(5.0, c).find(h => h.name == "XASH" && h.bits == b)
      assert(inGrid.contains(Hashes.byName("XASH", b, 5.0, c)), s"XASH-$b at $c unique values")
    }
  }

  test("formatTable aligns columns") {
    val t = Experiments.formatTable(Seq("a", "bb"), Seq(Seq("xxx", "y"), Seq("z", "wwww")))
    val lines = t.split("\n")
    assert(lines.length == 4)
    assert(lines.map(_.length).distinct.size == 1)
  }
}
