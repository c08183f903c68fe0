package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.PropHelpers

class InitColumnSpec extends AnyFunSuite with PropHelpers {

  private val rows = Seq(
    Seq("a", "tokyo", "xxxxxxxxxx"),
    Seq("b", "tokyo", "yyyyyyyyyy"),
    Seq("c", "tokyo", "zzzzzzzzzzzzzz"),
    Seq("a", "paris", "w"))

  test("cardinalities count distinct normalised values per column") {
    assert(InitColumn.cardinalities(rows) == Seq(3, 2, 4))
    assert(InitColumn.cardinalities(Seq(Seq("A", "a "), Seq("a", "b"))) == Seq(1, 2))
  }

  test("byCardinality picks the minimum-cardinality column (§6.1 heuristic)") {
    assert(InitColumn.byCardinality(rows) == 1)
  }

  test("byCardinality breaks ties towards the first column") {
    val tied = Seq(Seq("a", "x"), Seq("b", "y"))
    assert(InitColumn.byCardinality(tied) == 0)
  }

  test("byColumnOrder always picks column 0 (§7.5.4 baseline i)") {
    assert(InitColumn.byColumnOrder(rows) == 0)
  }

  test("byLongestString picks the column with the longest value (§7.5.4 baseline ii)") {
    assert(InitColumn.byLongestString(rows) == 2)
  }

  test("best/worst bound the PL counts (§7.5.4 baselines iii/iv)") {
    val counts = Seq(50L, 10L, 700L)
    assert(InitColumn.best(counts) == 1)
    assert(InitColumn.worst(counts) == 2)
    forAllSeeded(50) { rng =>
      val cs = (0 until 2 + rng.nextInt(5)).map(_ => rng.nextInt(1000).toLong)
      assert(cs(InitColumn.best(cs)) == cs.min)
      assert(cs(InitColumn.worst(cs)) == cs.max)
    }
  }

  test("heuristics agree on single-column queries") {
    val single = Seq(Seq("a"), Seq("b"))
    assert(InitColumn.byCardinality(single) == 0)
    assert(InitColumn.byLongestString(single) == 0)
  }

  test("a query with no rows has no columns and picks column 0") {
    assert(InitColumn.cardinalities(Seq.empty).isEmpty)
    assert(InitColumn.byCardinality(Seq.empty) == 0)
    assert(InitColumn.byLongestString(Seq.empty) == 0)
  }
}
