package repro.jobs

import org.apache.spark.sql.SparkSession

import repro.corpus.CorpusGen
import repro.hash.Hashes
import repro.index.InvertedIndex

/** spark-submit entrypoint: build a synthetic corpus and its XASH
  * inverted index (the offline phase of Figure 2), then print index
  * statistics.
  *
  * Usage: BuildIndexJob [WT|OD|School] [bits]
  */
object BuildIndexJob {
  def main(args: Array[String]): Unit = {
    val corpusName = args.headOption.getOrElse("WT")
    val bits       = args.lift(1).map(_.toInt).getOrElse(128)
    val spark = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("mate-build-index")
      .getOrCreate()

    val cfg = corpusName match {
      case "OD"     => CorpusGen.openDataConfig()
      case "School" => CorpusGen.schoolConfig()
      case _        => CorpusGen.webTablesConfig()
    }
    val corpus = CorpusGen.generate(spark, cfg, Seq.empty)
    val hash   = Hashes.byName("XASH", bits, corpus.avgColumns, corpus.uniqueValues)
    val index  = InvertedIndex.build(corpus.cells, hash).cache()

    val t0 = System.nanoTime()
    val entries = index.count()
    val ms = (System.nanoTime() - t0) / 1000000
    val (nCells, nRows, perCell, perRow) = InvertedIndex.storageStats(corpus.cells, bits)
    println(s"corpus=$corpusName tables=${corpus.nTables} cells=$nCells rows=$nRows " +
      s"unique=${corpus.uniqueValues} avgCols=${corpus.avgColumns}")
    println(s"index entries=$entries built+counted in ${ms}ms; " +
      s"superkey bytes per-cell=$perCell per-row=$perRow")
    spark.stop()
  }
}
