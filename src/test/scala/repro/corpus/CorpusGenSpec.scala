package repro.corpus

import repro.{Fixtures, SparkSpec}

class CorpusGenSpec extends SparkSpec {

  test("corpus materialises the configured number of tables") {
    val tables = Fixtures.corpus.cells.select("tableId").distinct().count()
    assert(tables == Fixtures.config.nTables)
  }

  test("cells respect column/row bounds (planting may only widen, never below min)") {
    import org.apache.spark.sql.functions._
    val stats = Fixtures.corpus.cells.groupBy("tableId")
      .agg(max("colId") as "mc", max("rowId") as "mr")
      .collect()
    stats.foreach { r =>
      assert(r.getAs[Int]("mc") + 1 >= Fixtures.config.minCols)
      assert(r.getAs[Int]("mc") + 1 <= math.max(Fixtures.config.maxCols, 4))
      assert(r.getAs[Long]("mr") + 1 >= Fixtures.config.minRows)
    }
  }

  test("every (table,row,col) coordinate holds exactly one cell") {
    val total = Fixtures.corpus.cells.count()
    val coords = Fixtures.corpus.cells.select("tableId", "rowId", "colId").distinct().count()
    assert(total == coords)
  }

  test("tables are rectangular: every row has every column") {
    import org.apache.spark.sql.functions._
    val bad = Fixtures.corpus.cells
      .groupBy("tableId", "rowId").agg(count(lit(1)) as "n")
      .join(
        Fixtures.corpus.cells.groupBy("tableId")
          .agg((max("colId") + 1) as "nc"), Seq("tableId"))
      .filter(col("n") =!= col("nc"))
      .count()
    assert(bad == 0)
  }

  test("generation is deterministic in the config") {
    val again = CorpusGen.generate(spark, Fixtures.config, Fixtures.queryConfigs)
    assert(again.cells.count() == Fixtures.corpus.cells.count())
    assert(again.uniqueValues == Fixtures.corpus.uniqueValues)
    val a = again.cells.orderBy("tableId", "rowId", "colId").limit(50).collect().map(_.toString)
    val b = Fixtures.corpus.cells.orderBy("tableId", "rowId", "colId").limit(50).collect().map(_.toString)
    assert(a.sameElements(b))
    again.cells.unpersist()
  }

  test("query sets have the configured shapes") {
    assert(Fixtures.queries2.size == 2)
    assert(Fixtures.queries3.size == 1)
    Fixtures.queries2.foreach { q =>
      assert(q.rows.size == 20)
      assert(q.qSize == 2)
    }
    Fixtures.queries3.foreach { q =>
      assert(q.rows.size == 12)
      assert(q.qSize == 3)
    }
  }

  test("query tuples deduplicate rows (π_X projection)") {
    Fixtures.allQueries.foreach { q =>
      assert(q.tuples.size == q.rows.distinct.size)
      assert(q.tuples.size <= q.rows.size)
    }
  }

  test("planting works: every query has at least one joinable corpus table") {
    Fixtures.allQueries.foreach { q =>
      val gt = Fixtures.groundTruthJ(q)
      assert(gt.nonEmpty, s"query ${q.set}/${q.id} has no joinable table")
    }
  }

  test("partial tables create unary-index false positives (single values without full tuples)") {
    // at least one query has a table containing an init value but with
    // zero n-ary joinability — the FP pressure the paper describes (§3)
    val found = Fixtures.allQueries.exists { q =>
      val gt = Fixtures.groundTruthJ(q)
      val initVals = q.tuples.map(_.head.toLowerCase.trim).toSet
      Fixtures.localTables.exists { case (t, rows) =>
        !gt.contains(t) && rows.values.exists(_.values.exists(initVals.contains))
      }
    }
    assert(found, "expected at least one partial/noise table with init-value hits but no joinability")
  }

  test("corpus stats: avg columns and unique values are recorded") {
    assert(Fixtures.corpus.avgColumns >= Fixtures.config.minCols)
    assert(Fixtures.corpus.uniqueValues > 0)
    assert(Fixtures.corpus.nTables == Fixtures.config.nTables)
  }

  test("preset configs mirror the paper's corpus shapes (V≈5 vs V≈26)") {
    val wt = CorpusGen.webTablesConfig()
    val od = CorpusGen.openDataConfig()
    assert((wt.minCols + wt.maxCols) / 2.0 <= 6.0)
    assert((od.minCols + od.maxCols) / 2.0 >= 20.0)
    assert(CorpusGen.schoolConfig().minRows > wt.maxRows)
  }
}
