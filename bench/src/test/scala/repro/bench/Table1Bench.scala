package repro.bench

import repro.SparkSpec
import repro.harness.Experiments

/** Reproduces paper Table 1: input query-table statistics per set.
  *
  * Paper values (for reference; ours are a scaled-down synthetic
  * workload, DESIGN.md §2):
  *   WT (10): card 3 / j 4     WT (100): 16 / 52    WT (1000): 151 / 99
  *   OD (100): 15 / 40         OD (1000): 263 / 1434  OD (10000): 2455 / 8187
  *   Kaggle: 34400 / 2318      School: 3100 / 15130
  */
class Table1Bench extends SparkSpec {

  test("Table 1: query-set statistics (tables, corpus, cardinality, joinability)") {
    val stats = BenchGrid.workload.flatMap(pc => Experiments.setStats(spark, pc))
    println(Experiments.table1(stats))
    val ordered = Experiments.setOrder.flatMap(s => stats.find(_.set == s))

    assert(ordered.size == Experiments.setOrder.size, "every query set present")
    // Shape checks mirroring the paper: cardinality ordering within each
    // corpus family, and joinability grows with cardinality for OD.
    def card(s: String) = ordered.find(_.set == s).get.avgCardinality
    assert(card("WT (10)") < card("WT (100)") && card("WT (100)") < card("WT (1k)"))
    assert(card("OD (100)") < card("OD (1k)") && card("OD (1k)") < card("OD (10k)"))
    // every set must discover at least one joinable table on average
    ordered.foreach(s => assert(s.avgJoinability > 0, s"${s.set} found no joinable tables"))
  }
}
