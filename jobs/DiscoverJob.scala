package repro.jobs

import org.apache.spark.sql.SparkSession

import repro.core.MateSpark
import repro.harness.Experiments
import repro.hash.Hashes
import repro.index.InvertedIndex

/** spark-submit entrypoint: run one n-ary join discovery (the online
  * phase of Figure 2) for a query set of the scaled workload.
  *
  * Usage: DiscoverJob [setName] [hashName|SCR] [bits] [k]
  * e.g.   DiscoverJob "WT (100)" XASH 128 10
  */
object DiscoverJob {
  def main(args: Array[String]): Unit = {
    val setName  = args.headOption.getOrElse("WT (100)")
    val hashName = args.lift(1).getOrElse("XASH")
    val bits     = args.lift(2).map(_.toInt).getOrElse(128)
    val k        = args.lift(3).map(_.toInt).getOrElse(Experiments.K)
    val spark = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("mate-discover")
      .getOrCreate()

    val pc = Experiments.workload(spark).find(_.queries.contains(setName))
      .getOrElse(sys.error(s"unknown query set: $setName"))
    val hash = if (hashName.equalsIgnoreCase("SCR")) None
               else Some(Hashes.byName(hashName, bits, pc.corpus.avgColumns, pc.corpus.uniqueValues))
    val rowSk = hash.map { h =>
      val sk = InvertedIndex.rowSuperKeys(pc.corpus.cells, h).cache(); sk.count(); sk
    }

    for (q <- pc.queries(setName)) {
      val r = MateSpark.run(spark, pc.pls, pc.rowVals, rowSk, hash, q, k)
      println(s"query ${q.id}: top-$k = ${r.topK.mkString(", ")}")
      println(s"  metrics: ${r.metrics}")
    }
    spark.stop()
  }
}
