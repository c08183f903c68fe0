package repro.jobs

import org.apache.spark.sql.SparkSession

import repro.harness.Experiments

/** spark-submit entrypoint: regenerate the paper tables (1, 2, 3) plus
  * the §7.5.4 heuristic comparison in one run — the same computations
  * and the same reports as the bench suites, as a standalone job.
  *
  * Usage: TablesJob [table1|table2|table3|init|all]
  */
object TablesJob {
  def main(args: Array[String]): Unit = {
    val which = args.headOption.getOrElse("all")
    val spark = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("mate-tables")
      .getOrCreate()

    val workload = Experiments.workload(spark)

    if (which == "table1" || which == "all")
      println(Experiments.table1(workload.flatMap(Experiments.setStats(spark, _))))

    if (which == "table2" || which == "table3" || which == "all") {
      val grid = workload.flatMap(Experiments.runGrid(spark, _))
      println(Experiments.table2(grid))
      println(Experiments.table3(grid))
    }

    if (which == "init" || which == "all") {
      val od = workload.find(_.corpus.name == "OD").get
      println(Experiments.initColumnTable(Experiments.initColumnExperiment(od, "OD (10k)")))
    }
    spark.stop()
  }
}
