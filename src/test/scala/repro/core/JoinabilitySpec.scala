package repro.core

import repro.{Oracle, PropHelpers, Reference, SparkSpec}
import repro.corpus.CorpusGen.{Cell, QueryTable}
import repro.hash.Xash
import repro.index.InvertedIndex

class JoinabilitySpec extends SparkSpec with PropHelpers {

  /** The packed mapping of query position i to column `cols(i)`. */
  private def packed(cols: Int*): Long = cols.zipWithIndex.map { case (c, i) => c.toLong << (8 * i) }.sum

  test("rowMappings finds the single exact mapping") {
    val m = Joinability.rowMappings(Seq("a", "b"), Map(0 -> "a", 1 -> "b", 2 -> "c"))
    assert(m.toSeq == Seq(packed(0, 1)))
  }

  test("rowMappings requires every key value to appear") {
    assert(Joinability.rowMappings(Seq("a", "zz"), Map(0 -> "a", 1 -> "b")).isEmpty)
  }

  test("rowMappings is injective: a repeated key value needs two columns") {
    assert(Joinability.rowMappings(Seq("a", "a"), Map(0 -> "a", 1 -> "x")).isEmpty)
    val two = Joinability.rowMappings(Seq("a", "a"), Map(0 -> "a", 1 -> "a"))
    assert(two.toSet == Set(packed(0, 1), packed(1, 0)))
  }

  test("rowMappings enumerates all permutations of duplicated values") {
    val m = Joinability.rowMappings(Seq("a", "b"), Map(0 -> "a", 1 -> "b", 2 -> "a"))
    assert(m.toSet == Set(packed(0, 1), packed(2, 1)))
  }

  test("mappings pack up to 8 query columns and column ids up to 255; beyond that they fail") {
    val cols = (248 until 256).toArray
    assert(Joinability.mappings(Array.fill(8)("a"), cols, Array.fill(8)("a")).length == 40320) // 8!
    assert(Joinability.mappings(Array("a", "b"), Array(255, 3), Array("b", "a")).toSeq == Seq(packed(3, 255)))
    intercept[IllegalArgumentException](Joinability.mappings(Array.fill(9)("a"), (0 until 9).toArray, Array.fill(9)("a")))
    intercept[IllegalArgumentException](Joinability.mappings(Array("a"), Array(256), Array("a")))
  }

  test("a row matching under 120 mappings counts in full: every engine and groundTruth score j = 2") {
    import spark.implicits._
    // (a,a,a) matches row 0 under 6·5·4 = 120 mappings; (b,b,b) matches
    // row 1 only under the permutations of columns 3-5.
    val rows = Map(
      0L -> (0 until 6).map(_ -> "a").toMap,
      1L -> Map(0 -> "x", 1 -> "y", 2 -> "z", 3 -> "b", 4 -> "b", 5 -> "b"))
    val cells   = rows.toSeq.flatMap { case (r, vals) => vals.map { case (c, v) => Cell(0L, c, r, v) } }.toDS().toDF()
    val q       = QueryTable("crafted", 0, Seq(Seq("a", "a", "a"), Seq("b", "b", "b")))
    val xash    = Xash(128, 4)
    val pls     = InvertedIndex.postingLists(cells)
    val rowVals = InvertedIndex.rowValues(cells)
    val rowSk   = InvertedIndex.rowSuperKeys(cells, xash)
    val sks     = rowSk.collect().map(r => (r.getLong(0), r.getLong(1)) -> r.getAs[Array[Byte]]("sk")).toMap
    val plItems = MateSpark.fetch(pls, q).toSeq.map { case (t, r, v) => MateLocal.PlItem(t, r, v, sks((t, r))) }
    val expected = Seq((0L, 2L))
    assert(Reference.groundTruth(q.tuples, rows.values) == 2L)
    for (h <- Seq(Some(xash), None)) {
      val what = h.getOrElse("SCR").toString
      assert(MateLocal.discover(plItems, q, h, t => if (t == 0L) rows else Map.empty, 10).topK == expected, what)
      assert(MateSpark.run(spark, pls, rowVals, h.map(_ => rowSk), h, q, 10).topK == expected, what)
    }
  }

  test("groundTruth uses a single consistent mapping per table (Eq. 2)") {
    // Two rows match under *different* mappings; only one can count.
    val tuples = Seq(Seq("a", "b"), Seq("c", "d"))
    val rows = Seq(
      Map(0 -> "a", 1 -> "b", 2 -> "x"),  // matches tuple 0 under 0:0|1:1
      Map(0 -> "d", 1 -> "x", 2 -> "c"))  // matches tuple 1 under 0:2|1:0
    assert(Reference.groundTruth(tuples, rows) == 1L)
    // With an aligned second row both count.
    val aligned = Seq(
      Map(0 -> "a", 1 -> "b", 2 -> "x"),
      Map(0 -> "c", 1 -> "d", 2 -> "y"))
    assert(Reference.groundTruth(tuples, aligned) == 2L)
  }

  test("groundTruth counts distinct tuples, not rows") {
    val tuples = Seq(Seq("a", "b"))
    val rows = (0 until 5).map(_ => Map(0 -> "a", 1 -> "b"))
    assert(Reference.groundTruth(tuples, rows) == 1L)
  }

  test("groundTruth normalises values case-insensitively") {
    assert(Reference.groundTruth(Seq(Seq("A ", "B")), Seq(Map(0 -> "a", 1 -> "b"))) == 1L)
  }

  test("groundTruth matches DuckDB argmax-over-mappings INTERSECT semantics (running example)") {
    import spark.implicits._
    // Figure 1: query d (F.Name, L.Name, Country ignored → use 2 columns
    // for tractable SQL) against candidate T1 with swapped columns.
    val qt = Seq(
      ("muhammad", "lee"), ("ansel", "adams"), ("ansel", "adams"),
      ("muhammad", "lee"), ("helmut", "newton")).toDF("q0", "q1")
    val cand = Seq(
      ("newton", "helmut", "photographer"),
      ("lee", "muhammad", "dancer"),
      ("adams", "ansel", "dancer"),
      ("ali", "muhammad", "boxer"),
      ("sandler", "adam", "actor")).toDF("c0", "c1", "c2")

    val tuples = qt.collect().map(r => Seq(r.getString(0), r.getString(1))).toSeq
    val rows = cand.collect().zipWithIndex.map { case (r, i) =>
      (0 until 3).map(c => c -> r.getString(c)).toMap
    }
    val j = Reference.groundTruth(tuples, rows)

    // SQL: max over all ordered column pairs of |π(qt) ∩ π_perm(cand)|.
    val perms = for {
      a <- 0 until 3; b <- 0 until 3 if a != b
    } yield s"(SELECT count(*) FROM (SELECT DISTINCT q0, q1 FROM qt INTERSECT SELECT DISTINCT c$a AS q0, c$b AS q1 FROM cand))"
    val sql = s"SELECT greatest(${perms.mkString(", ")}) AS j"
    Oracle.assertEquivalent(Seq(j).toDF("j"), sql, "qt" -> qt, "cand" -> cand)
    assert(j == 3L) // muhammad/lee, ansel/adams, helmut/newton under 0:c1|1:c0
  }

  test("groundTruth equals DuckDB on random small tables") {
    import spark.implicits._
    forAllSeeded(5, seed = 31) { rng =>
      val vocab = Vector("aa", "bb", "cc", "dd", "ee")
      def v() = vocab(rng.nextInt(vocab.size))
      val qtRows = (0 until 8).map(_ => (v(), v()))
      val candRows = (0 until 10).map(_ => (v(), v(), v()))
      val qt = qtRows.toDF("q0", "q1")
      val cand = candRows.toDF("c0", "c1", "c2")
      val j = Reference.groundTruth(
        qtRows.map(t => Seq(t._1, t._2)),
        candRows.map(r => Map(0 -> r._1, 1 -> r._2, 2 -> r._3)))
      val perms = for { a <- 0 until 3; b <- 0 until 3 if a != b }
        yield s"(SELECT count(*) FROM (SELECT DISTINCT q0, q1 FROM qt INTERSECT SELECT DISTINCT c$a AS q0, c$b AS q1 FROM cand))"
      Oracle.assertEquivalent(
        Seq(j).toDF("j"),
        s"SELECT greatest(${perms.mkString(", ")}) AS j",
        "qt" -> qt, "cand" -> cand)
    }
  }
}
