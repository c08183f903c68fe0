package repro.bench

import repro.SparkSpec
import repro.harness.Experiments
import repro.harness.Experiments.{GridResult, PreparedCorpus}

/** Shared lazily-computed benchmark state: the scaled Table-1 workload
  * and the full Table-2/3 grid, computed once per bench JVM so the
  * table suites print different projections of a single run.
  */
object BenchGrid {
  lazy val spark = SparkSpec.shared

  lazy val workload: Seq[PreparedCorpus] = Experiments.workload(spark, queriesPerSet = 2)

  lazy val grid: Seq[GridResult] = workload.flatMap(pc => Experiments.runGrid(spark, pc))

  def byConfig(set: String, config: String, bits: Int): Option[GridResult] =
    Experiments.byConfig(grid, set, config, bits)
}
