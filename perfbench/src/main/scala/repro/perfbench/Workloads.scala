package repro.perfbench

import repro.corpus.CorpusGen
import repro.corpus.CorpusGen.{CorpusConfig, QuerySetConfig}

/** One benchmark workload: `shards` independent corpora of one preset
  * shape, each generated with its own query sets.
  *
  * CorpusGen plants each joinable or partial table for one query drawn
  * from all the corpus's queries, and a query's candidate rows include
  * the other queries' planted cells. So each shard holds as many queries
  * as `Experiments.workload` puts into that preset, which keeps the
  * preset's load per query; more queries come from more shards.
  */
final case class Workload(
    name: String,
    defaultSeed: Long,
    shards: Int,
    corpus: Long => CorpusConfig,
    querySets: Seq[QuerySetConfig]) {

  /** Seed of shard `s` of a run seeded `seed`; shard 0 uses `seed`. */
  def shardSeed(seed: Long, s: Int): Long = seed + s * 1000003L
}

object Workloads {

  val all: Seq[Workload] = Seq(
    Workload(
      // many small narrow tables: fetch, the table-filter rules and
      // Spark's per-job cost carry the query time
      "wt-web",
      defaultSeed = 7,
      shards = 5,
      seed => CorpusGen.webTablesConfig(seed = seed),
      // 8 queries, as Experiments.workload puts into the WT corpus
      Seq(QuerySetConfig("WT (1k)", 4, cardinality = 150, qSize = 2),
          QuerySetConfig("Kaggle", 4, cardinality = 800, qSize = 2))),
    Workload(
      // wide tables full of false-positive rows: the row filter and
      // column-mapping verification do most of the work
      "od-wide",
      defaultSeed = 11,
      shards = 4,
      seed => CorpusGen.openDataConfig(seed = seed),
      // 6 queries, as Experiments.workload puts into the OD corpus
      Seq(QuerySetConfig("OD (1k)", 3, cardinality = 260, qSize = 2),
          QuerySetConfig("OD (10k)", 3, cardinality = 800, qSize = 3))))

  def byName(name: String): Option[Workload] = all.find(_.name == name)
}
