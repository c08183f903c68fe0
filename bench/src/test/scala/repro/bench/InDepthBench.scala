package repro.bench

import repro.SparkSpec
import repro.harness.Experiments
import repro.index.InvertedIndex

/** The §7.1/§7.5 in-text experiments: index storage accounting, the
  * initial-column heuristic comparison (§7.5.4) and the Figure-4-shaped
  * systems comparison (MATE vs SCR/MCR/Josie adaptations).
  */
class InDepthBench extends SparkSpec {

  test("Index storage: per-cell vs per-row super keys (§7.1 'Index generation')") {
    val stats = BenchGrid.workload.map(pc => pc.corpus.name -> InvertedIndex.storageStats(pc.corpus.cells, bits = 128))
    println(Experiments.storageTable(stats))
    for ((_, (_, _, perCell, perRow)) <- stats)
      assert(perCell > perRow, "per-row storage must be the smaller layout")
  }

  test("§7.5.4: initial-column heuristic fetches fewest PLs after the oracle") {
    val pc = BenchGrid.workload.find(_.corpus.name == "OD").get
    val results = Experiments.initColumnExperiment(pc, "OD (10k)")
    println(Experiments.initColumnTable(results))

    val byName = results.map(r => r.heuristic -> r.avgPlItems).toMap
    assert(byName("Best") <= byName("Cardinality"))
    assert(byName("Cardinality") <= byName("Worst"))
    // the paper's ordering: cardinality beats the other non-oracle picks
    assert(byName("Cardinality") <= byName("Column Order") + 1e-9 ||
           byName("Cardinality") <= byName("TLS") + 1e-9)
  }

  test("Systems comparison (Figure 4 shape): MATE beats SCR/MCR/Josie adaptations on work") {
    val wt = BenchGrid.workload.find(_.corpus.name == "WT").get
    val od = BenchGrid.workload.find(_.corpus.name == "OD").get
    val results = Experiments.systemsExperiment(spark, wt, Seq("WT (1k)")) ++
                  Experiments.systemsExperiment(spark, od, Seq("OD (1k)"))

    println(Experiments.systemsTable(results))

    for (set <- Seq("WT (1k)", "OD (1k)")) {
      val of = results.filter(_.set == set)
      val mate = of.find(_.system.startsWith("MATE")).get
      val scr  = of.find(_.system == "SCR").get
      val mcr  = of.find(_.system == "MCR").get
      assert(mate.cellsCompared <= scr.cellsCompared, s"$set: MATE ≤ SCR work")
      assert(mate.cellsCompared <= mcr.cellsCompared, s"$set: MATE ≤ MCR work")
    }
  }
}
