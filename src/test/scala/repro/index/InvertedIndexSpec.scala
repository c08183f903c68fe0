package repro.index

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.catalyst.expressions.ScalaUDF
import org.apache.spark.sql.execution.adaptive.AdaptiveSparkPlanHelper
import org.apache.spark.sql.execution.aggregate.BaseAggregateExec
import org.apache.spark.sql.execution.columnar.{InMemoryRelation, InMemoryTableScanExec}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.{IntegerType, LongType, MapType, StringType, StructField, StructType}
import repro.{Fixtures, Oracle, SparkSpec}
import repro.core.Joinability
import repro.corpus.CorpusGen
import repro.hash.{BloomHashes, Hashes, SuperKeyHash, Xash}
import repro.util.Bits

class InvertedIndexSpec extends SparkSpec with AdaptiveSparkPlanHelper {

  test("posting lists: one PL item per cell, normalised value") {
    assert(Fixtures.pls.count() == Fixtures.corpus.cells.count())
    val raw = Fixtures.pls.select("value").limit(200).collect().map(_.getString(0))
    raw.foreach(v => assert(v == SuperKeyHash.normalize(v)))
  }

  test("posting lists and row values hold SuperKeyHash.normalize of any text") {
    import spark.implicits._
    val rng     = new scala.util.Random(7)
    val special = "\u0000\t\n\u000b\f\r\u001f \u00a0\u2003ΣΑσςİIıÄ"
    def char(): Char =
      if (rng.nextBoolean()) special(rng.nextInt(special.length))
      else Iterator.continually(rng.nextInt(0x10000).toChar).find(!_.isSurrogate).get
    val values = Seq.fill(3000)(Seq.fill(1 + rng.nextInt(8))(char()).mkString)
    val cells  = values.zipWithIndex.map { case (v, i) => CorpusGen.Cell(0L, i % 10, i / 10L, v) }.toDS().toDF()
    val expected = values.zipWithIndex.map { case (v, i) => (i % 10, i / 10L) -> SuperKeyHash.normalize(v) }.toMap
    val inPls = InvertedIndex.postingLists(cells).collect()
      .map(r => (r.getAs[Int]("colId"), r.getAs[Long]("rowId")) -> r.getAs[String]("value")).toMap
    val inVals = InvertedIndex.rowValues(cells).collect()
      .flatMap(r => r.getMap[Int, String](r.fieldIndex("vals")).map { case (c, v) => (c, r.getAs[Long]("rowId")) -> v }).toMap
    def show(v: String) = v.map(c => f"${c.toInt}%04x").mkString("[", " ", "]")
    for ((name, got) <- Seq("posting lists" -> inPls, "row values" -> inVals)) {
      val wrong = expected.toSeq.collect { case (cell, v) if !got.get(cell).contains(v) =>
        s"$cell: ${got.get(cell).map(show)} != ${show(v)}" }
      assert(wrong.isEmpty, s"$name: ${wrong.size} of ${expected.size} values differ, e.g. ${wrong.take(3)}")
    }
  }

  test("posting lists and row values have fixed schemas, nullability included") {
    val pls = StructType(Seq(StructField("value", StringType, nullable = false), StructField("tableId", LongType, nullable = false),
      StructField("colId", IntegerType, nullable = false), StructField("rowId", LongType, nullable = false)))
    val vals = StructType(Seq(StructField("tableId", LongType, nullable = false), StructField("rowId", LongType, nullable = false),
      StructField("vals", MapType(IntegerType, StringType, valueContainsNull = false), nullable = false)))
    for ((name, df, expected) <- Seq(("posting lists", Fixtures.pls, pls), ("row values", Fixtures.rowVals, vals),
                                     ("uncached row values", InvertedIndex.rowValues(Fixtures.corpus.cells), vals)))
      assert(df.schema == expected, s"$name: ${df.schema.treeString}")
  }

  test("row values built after the posting lists are cached read the cache: no cell is normalised twice") {
    // a new source plan, so no relation cached by another test matches it
    val cells = spark.createDataFrame(Fixtures.corpus.cells.rdd, Fixtures.corpus.cells.schema)
    val pls   = InvertedIndex.postingLists(cells).cache()
    val plan  = InvertedIndex.rowValues(cells).queryExecution.optimizedPlan
    assert(plan.exists(_.isInstanceOf[InMemoryRelation]), plan.treeString)
    assert(!plan.exists(_.expressions.exists(_.exists(_.isInstanceOf[ScalaUDF]))), plan.treeString)
    pls.unpersist()
  }

  test("row super keys read the cached row values' InMemoryRelation with no Aggregate, aligned with them row by row") {
    val h = Xash(128, 4)
    def cached(df: DataFrame): InMemoryRelation =
      df.queryExecution.optimizedPlan.collectFirst { case r: InMemoryRelation => r }.get
    val vals = cached(Fixtures.rowVals)
    val plan = cached(Fixtures.rowSk(h)).cacheBuilder.cachedPlan
    assert(find(plan) { case s: InMemoryTableScanExec => s.relation.cacheBuilder eq vals.cacheBuilder; case _ => false }.isDefined,
      plan.treeString)
    assert(find(plan)(_.isInstanceOf[BaseAggregateExec]).isEmpty, plan.treeString)
    def byPartition(df: DataFrame): Seq[Vector[(Long, Long)]] = {
      val Seq(t, r) = Seq("tableId", "rowId").map(df.schema.fieldIndex)
      df.queryExecution.toRdd.mapPartitions(rows => Iterator.single(rows.map(row => (row.getLong(t), row.getLong(r))).toVector))
        .collect().toSeq
    }
    val (keys, rows) = (byPartition(Fixtures.rowSk(h)), byPartition(Fixtures.rowVals))
    assert(rows.count(_.nonEmpty) > 1)
    assert(keys == rows)
  }

  test("posting-list counts per value match DuckDB GROUP BY (oracle)") {
    val sparkCounts = Fixtures.pls.groupBy("value").agg(count(lit(1)) as "cnt")
    Oracle.assertEquivalent(
      sparkCounts,
      "SELECT lower(trim(value)) AS value, count(*) AS cnt FROM cells GROUP BY 1",
      "cells" -> Fixtures.corpus.cells)
  }

  test("row value maps contain every column of every row") {
    val sizes = Fixtures.rowVals
      .select(size(map_keys(col("vals"))) as "n", col("tableId"))
      .join(
        Fixtures.corpus.cells.groupBy("tableId").agg((max("colId") + 1) as "nc"),
        Seq("tableId"))
      .filter(col("n") =!= col("nc")).count()
    assert(sizes == 0)
  }

  /** Cells with upper case, a stray tab, newline and space, a `null`
    * cell and non-ASCII text.
    */
  private lazy val craftedCells = {
    import spark.implicits._
    Seq(
      Seq("Berlin", "\tGERMANY", "Mitte\n"),
      Seq(" Ärger ", null, "ΣΟΦΊΑ"),
      Seq("İstanbul", "Straße", " ", ""),
      Seq("x", "X", " x\t"))
      .zipWithIndex.flatMap { case (vs, r) => vs.zipWithIndex.map { case (v, c) => CorpusGen.Cell(r % 2L, c, r.toLong, v) } }
      .toDS().toDF()
  }

  private def superKeys(rowSk: DataFrame): Map[(Long, Long), Array[Byte]] =
    rowSk.collect().map(r => (r.getAs[Long]("tableId"), r.getAs[Long]("rowId")) -> r.getAs[Array[Byte]]("sk")).toMap

  for (bits <- Seq(128, 512); name <- Hashes.all) {
    test(s"[${Hashes.byName(name, bits)}] per-row super keys equal the local OR-aggregation of cell hashes") {
      val hash = Hashes.byName(name, bits, Fixtures.corpus.avgColumns, Fixtures.corpus.uniqueValues)
      for ((what, cells, sk) <- Seq(("fixture", Fixtures.corpus.cells, Fixtures.rowSk(hash)),
                                    ("crafted", craftedCells, InvertedIndex.rowSuperKeys(craftedCells, hash)))) {
        val raw = cells.collect().groupMap(c => (c.getLong(0), c.getLong(2)))(_.getString(3))
        val got = superKeys(sk)
        assert(got.keySet == raw.keySet, what)
        for ((row, vals) <- raw) assert(Bits.equal(got(row), hash.superKey(vals)), s"$what: super key mismatch at $row")
      }
      // the keys hash the normalised values; the raw cells give the same bits
      for (v <- craftedCells.collect().map(_.getString(3)))
        assert(Bits.equal(hash.hash(v), hash.hash(SuperKeyHash.normalize(v))), s"hash of ${Option(v).map(_.map(_.toInt))}")
    }
  }

  for (hash <- Seq[SuperKeyHash](Xash(128, 4), BloomHashes.Bf(128, 8))) {
    test(s"[$hash] index no-false-negatives: every truly joinable row passes the mask (§6.3)") {
      val sk = Fixtures.rowSk(hash).collect()
        .map(r => (r.getLong(0), r.getLong(1)) -> r.getAs[Array[Byte]]("sk")).toMap
      var checked = 0
      for {
        q <- Fixtures.allQueries
        tuple <- q.tuples.map(_.map(SuperKeyHash.normalize))
        (t, rows) <- Fixtures.localTables
        (r, vals) <- rows
        if Joinability.rowMappings(tuple, vals).nonEmpty
      } {
        checked += 1
        assert(Bits.subsetOf(hash.superKey(tuple), sk((t, r))),
          s"false negative for tuple $tuple at table $t row $r")
      }
      assert(checked > 0, "fixture corpus has no joinable rows to check")
    }
  }

  test("full index join carries (value, tableId, colId, rowId, sk) — §5.1 structure") {
    val idx = InvertedIndex.build(Fixtures.corpus.cells, Xash(128, 4))
    assert(idx.columns.toSet == Set("value", "tableId", "colId", "rowId", "sk"))
    assert(idx.count() == Fixtures.corpus.cells.count())
  }

  test("storage accounting: per-row super keys are ~V× smaller than per-cell (§7.1)") {
    val (nCells, nRows, perCell, perRow) = InvertedIndex.storageStats(Fixtures.corpus.cells, 128)
    assert(nCells > nRows)
    assert(perCell == nCells * 16 && perRow == nRows * 16)
    assert(perCell.toDouble / perRow > 2.0) // avg columns ≥ 3 in the fixture corpus
  }

  test("row super keys are stable when the cells are repartitioned") {
    val h = Xash(128, 4)
    val a = InvertedIndex.rowSuperKeys(Fixtures.corpus.cells.repartition(1), h)
      .collect().map(r => (r.getLong(0), r.getLong(1)) -> r.getAs[Array[Byte]]("sk")).toMap
    val b = InvertedIndex.rowSuperKeys(Fixtures.corpus.cells.repartition(13), h)
      .collect().map(r => (r.getLong(0), r.getLong(1)) -> r.getAs[Array[Byte]]("sk")).toMap
    assert(a.keySet == b.keySet)
    a.foreach { case (k, v) => assert(Bits.equal(v, b(k))) }
  }
}
