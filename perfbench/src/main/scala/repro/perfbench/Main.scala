package repro.perfbench

import java.lang.management.ManagementFactory
import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Path, Paths}

import scala.collection.mutable
import scala.concurrent.{Await, Future}
import scala.concurrent.ExecutionContext.Implicits.global
import scala.concurrent.duration.Duration
import scala.util.{Failure, Success, Try}

import org.apache.spark.sql.SparkSession

import repro.core.{InitColumn, MateLocal, MateSpark}
import repro.harness.Experiments
import repro.perfbench.Stats.{geoMean, mean, median, percentile, Metric}
import repro.util.Bits

/** The MATE benchmark: one workload, one seed, one measuring window.
  *
  * Usage: Main --workload <name> --seed <n> --seconds <s> --trace <0|1> --out <dir>
  *
  * A single client runs queries in a closed loop (the next query starts
  * when the previous one returns); Spark runs as local[nproc], one query
  * at a time. Every timed call is checked against [[GroundTruth]]. The
  * last stdout line is the JSON result: end-to-end metrics when
  * `--trace 0`, per-layer metrics when `--trace 1`.
  */
object Main {

  val K = Experiments.K

  /** Seconds of untimed passes of the sequential engine over every
    * query (at least one pass), so the JIT has compiled its hot paths
    * before the window.
    */
  val LocalWarmupSeconds = 2.0

  /** Queries of each set the dataflow engine samples, one call pair
    * (XASH-128, then SCR) each: a dataflow query costs seconds, a
    * sequential one milliseconds, so the sequential engine runs every
    * query for `--seconds`. The fixed count keeps the dataflow figures
    * comparable between runs whatever the machine's speed.
    */
  val SparkQueriesPerSet = 2

  final case class Args(workload: Workload, seed: Long, seconds: Double, trace: Boolean, out: Path)

  def main(argv: Array[String]): Unit = {
    val args = parse(argv) match {
      case Right(a) => a
      case Left(err) =>
        System.err.println(s"perfbench: $err")
        System.err.println("usage: --workload <" + Workloads.all.map(_.name).mkString("|") +
          "> --seed <n> --seconds <s> --trace <0|1> --out <dir>")
        sys.exit(2)
    }
    val spark = session(args.out)
    val code = try new Run(spark, args).apply() finally spark.stop()
    sys.exit(code)
  }

  private def parse(argv: Array[String]): Either[String, Args] = {
    val kv = argv.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    for {
      w <- kv.get("workload").flatMap(Workloads.byName).toRight(s"unknown or missing --workload: ${kv.get("workload")}")
      seed <- Try(kv.get("seed").map(_.toLong).getOrElse(w.defaultSeed)).toOption.toRight("--seed must be an integer")
      secs <- Try(kv.getOrElse("seconds", "10").toDouble).toOption.filter(_ > 0).toRight("--seconds must be positive")
      trace <- kv.getOrElse("trace", "0") match {
        case "0" => Right(false); case "1" => Right(true); case t => Left(s"--trace must be 0 or 1, got $t")
      }
    } yield Args(w, seed, secs, trace, Paths.get(kv.getOrElse("out", "perfbench/out")))
  }

  private def session(out: Path): SparkSession =
    SparkSession.builder
      .master(s"local[${Runtime.getRuntime.availableProcessors}]")
      .appName("perfbench")
      // two shuffle partitions per core: with the suites' 64, per-task
      // scheduling dominates a dataflow query on a few cores; broadcast
      // joins stay at Spark's default, as in the program's jobs
      .config("spark.sql.shuffle.partitions", (2 * Runtime.getRuntime.availableProcessors).toString)
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", out.resolve("spark-local").toAbsolutePath.toString)
      .getOrCreate()

  /** Heap in use after full GCs. The pauses let Spark's cleaner thread
    * drop the blocks of broadcasts and shuffles that a GC found
    * unreachable, before the next GC frees them.
    */
  private def heapMbAfterGc(): Double = {
    val mem = ManagementFactory.getMemoryMXBean
    (0 until 3).foreach { _ => System.gc(); Thread.sleep(200) }
    System.gc()
    mem.getHeapMemoryUsage.getUsed / (1024.0 * 1024.0)
  }

  /** Latency samples (ms) of one engine mode, with the query of each,
    * and, in a traced run, the traced minus the untraced latency of each
    * back-to-back call pair.
    */
  final class Samples {
    val ms = mutable.ArrayBuffer.empty[Double]
    val query = mutable.ArrayBuffer.empty[Int]
    val tracingOverheadMs = mutable.ArrayBuffer.empty[Double]

    def queries: Int = query.distinct.size

    /** Geometric mean, over the query sets, of the median over each
      * set's queries of each query's median latency. A workload's two
      * sets are of equal size and of different cost, so a pooled median
      * falls in the gap between them and moves with the two queries at
      * its edges; the set medians sit inside each set and ignore its few
      * costliest queries.
      */
    def gmeanOfSetMedians(setOf: Int => String): Double = {
      val perQuery = ms.indices.groupBy(query(_)).map { case (qi, ix) => qi -> median(ix.map(ms(_))) }
      geoMean(perQuery.groupBy { case (qi, _) => setOf(qi) }.values.map(qs => median(qs.values.toSeq)).toSeq)
    }
  }

  private final class Run(spark: SparkSession, args: Args) {
    private val w      = args.workload
    private val tracer = new Tracer(spark.sparkContext, args.trace)
    private var attempted = 0L
    private val failures  = mutable.ArrayBuffer.empty[String]

    private val t0 = System.nanoTime()
    private def phase(what: String): Unit =
      System.err.println(f"perfbench: ${(System.nanoTime() - t0) / 1e9}%6.1f s  $what")

    def apply(): Int = {
      // ---- set-up: one per shard; `setup_s` reports their median ----
      val (p, setups) = Setup.run(spark, w, args.seed, tracer, keepReplayData = args.trace)
      setups.foreach(t => phase(s"shard set-up: $t"))
      val heapMb = heapMbAfterGc()
      phase("set-up done")

      // ---- the oracle, from the raw cells of each shard, shards in parallel ----
      val gts = Await.result(Future.traverse(p.shards) { s =>
        Future(new GroundTruth(s.corpus.cells.select("tableId", "colId", "rowId", "value").collect().iterator
          .map(r => (r.getLong(0), r.getInt(1), r.getLong(2), r.getString(3)))))
      }, Duration.Inf)
      val expected = Await.result(Future.traverse(p.queries)(q => Future(gts(q.shardIx).topKScores(q.q, K))), Duration.Inf)

      phase("oracle done")
      val engines = new Engines(spark, p)
      val sparkPool = sparkQueryPool(p)

      // ---- warm-up, untimed: Spark code generation first, so the JIT
      // work and Spark clean-up it leaves behind end before the window ----
      Seq(true, false).foreach(xash => engines.dataflow(sparkPool.head, xash))
      val warmEnd = System.nanoTime() + (LocalWarmupSeconds * 1e9).toLong
      var warmPasses = 0
      while (warmPasses == 0 || System.nanoTime() < warmEnd) {
        for (qi <- p.queries.indices; xash <- Seq(true, false)) engines.local(qi, xash)
        warmPasses += 1
      }

      phase(s"warm-up done: $warmPasses sequential passes")

      /** One checked call; its latency in ms unless it threw. */
      def timed(mode: String, qi: Int)(call: => Seq[(Long, Long)]): Option[Double] = {
        attempted += 1
        val t0 = System.nanoTime()
        val out = Try(call)
        val ms = (System.nanoTime() - t0) / 1e6
        out match {
          case Success(topK) =>
            val got = topK.map(_._2)
            if (got != expected(qi))
              failures += s"$mode query ${p.queries(qi).label}: scores ${got.mkString(",")} != oracle ${expected(qi).mkString(",")}"
            Some(ms)
          case Failure(e) =>
            failures += s"$mode query ${p.queries(qi).label}: threw $e"
            None
        }
      }

      /** An untraced call, then in a traced run the same call traced. */
      def sample(mode: String, qi: Int, into: Samples)(plain: => Seq[(Long, Long)])(traced: => Seq[(Long, Long)]): Unit = {
        val plainMs = timed(mode, qi)(plain)
        plainMs.foreach { ms => into.ms += ms; into.query += qi }
        if (args.trace) for (a <- plainMs; b <- timed(mode + " traced", qi)(traced)) into.tracingOverheadMs += b - a
      }

      val localX, localS, sparkX, sparkS = new Samples
      val localCounters = mutable.Map.empty[(Int, Boolean), MateLocal.Counters]
      val sparkMetrics  = mutable.Map.empty[(Int, Boolean), MateSpark.Metrics]

      def localRound(): Unit =
        for (qi <- p.queries.indices; xash <- Seq(true, false)) {
          val (mode, into) = if (xash) ("local", localX) else ("local_scr", localS)
          sample(mode, qi, into)(engines.local(qi, xash).topK) {
            val r = tracer.span(if (xash) "local.discover" else "local.discover.scr", qi)(engines.local(qi, xash))
            localCounters.getOrElseUpdate((qi, xash), r.counters)
            r.topK
          }
        }

      def sparkPair(qi: Int): Unit =
        for (xash <- Seq(true, false)) {
          val (mode, into) = if (xash) ("spark", sparkX) else ("spark_scr", sparkS)
          tracer.listen(false)
          sample(mode, qi, into)(engines.dataflow(qi, xash).topK) {
            tracer.listen(true)
            val r = engines.dataflowTraced(qi, xash, tracer)
            sparkMetrics((qi, xash)) = r.metrics
            r.topK
          }
        }

      // ---- the window: passes of the sequential engine over every query
      // until `--seconds` have passed, then one dataflow call pair per
      // sampled query. Spark's background work after a dataflow call would
      // slow the sequential calls next to it. ----
      val rotation = new CpuRotation
      val end = System.nanoTime() + (args.seconds * 1e9).toLong
      var passes = 0
      while (passes == 0 || System.nanoTime() < end) { rotation.pin(passes); localRound(); passes += 1 }
      rotation.release()
      phase(s"$passes sequential passes done")
      sparkPool.foreach(sparkPair)
      tracer.listen(args.trace)
      phase(s"window done: dataflow XASH ms ${sparkX.ms.map(_.round).mkString(" ")}; SCR ms ${sparkS.ms.map(_.round).mkString(" ")}")

      val metrics =
        if (!args.trace) endToEnd(p, setups, heapMb, localX, localS, sparkX, sparkS)
        else {
          perLayer(p, gts, setups, localCounters.toMap, sparkMetrics.toMap,
            Seq(localX -> "local_query", localS -> "local_scr_query", sparkX -> "spark_query", sparkS -> "spark_scr_query"))
        }

      val failed = failures.size.toLong
      println(f"query_fail_frac ${failed.toDouble / attempted}%.6f (failed $failed of $attempted timed calls, checked against the oracle)")
      failures.take(20).foreach(f => println(s"MISMATCH $f"))
      println(Stats.resultJson(failures.isEmpty, attempted, failed, metrics))
      0
    }

    /** The queries the dataflow engine samples, alternating across sets. */
    private def sparkQueryPool(p: Prepared): IndexedSeq[Int] = {
      val bySet = p.queries.indices.groupBy(p.queries(_).q.set).values.map(_.take(SparkQueriesPerSet)).toSeq
        .sortBy(_.head)
      (0 until SparkQueriesPerSet).flatMap(j => bySet.flatMap(_.lift(j)))
    }

    // ---------------- end-to-end metrics (untraced run) ----------------

    private def endToEnd(p: Prepared, setups: Seq[SetupTimes], heapMb: Double,
                         localX: Samples, localS: Samples, sparkX: Samples, sparkS: Samples): Seq[Metric] = {
      def report(name: String, value: Double, unit: String, note: String): Metric = {
        println(f"$name%-24s $value%14.4f $unit%-3s  ($note)")
        Metric(name, value, unit)
      }
      def g(name: String, s: Samples, what: String) =
        report(name, s.gmeanOfSetMedians(p.queries(_).q.set), "ms",
          s"geometric mean over the query sets of each set's median query; ${s.queries} queries, ${s.ms.size} $what calls")
      println(f"(local_query_ms_p90 ${percentile(localX.ms.toSeq, 90)}%.4f ms is reported, unbounded, by the traced run)")
      for ((s, name) <- Seq(localX -> "local.query_ms_gmean", localS -> "local.query_ms_gmean.scr"))
        println(f"(${name} ${s.gmeanOfSetMedians(p.queries(_).q.set)}%.4f ms, over ${s.queries} queries and ${s.ms.size} calls, is reported, unbounded, by the traced run)")
      Seq(
        report("setup_s", median(setups.map(_.total)), "s", s"median of ${setups.size} shard set-ups"),
        report("heap_mb", heapMb, "MB", "driver heap after set-up and a full GC"),
        g("spark_query_ms_gmean", sparkX, "MateSpark.run XASH-128"),
        g("spark_scr_query_ms_gmean", sparkS, "MateSpark.run SCR"))
    }

    // ---------------- per-layer metrics (traced run) ----------------

    private def perLayer(
        p: Prepared, gts: IndexedSeq[GroundTruth], setups: Seq[SetupTimes],
        localCounters: Map[(Int, Boolean), MateLocal.Counters],
        sparkMetrics: Map[(Int, Boolean), MateSpark.Metrics],
        samples: Seq[(Samples, String)]): Seq[Metric] = {
      val out = mutable.ArrayBuffer.empty[Metric]
      def m(name: String, value: Double, unit: String): Unit = out += Metric(name, value, unit)

      tracer.drain()
      val spans = tracer.finished()
      writeSpans(spans)
      val byName = spans.groupBy(_.name)
      val childrenOf = spans.groupBy(_.parent)
      def inclusive(s: Tracer.SpanRecord): Seq[Tracer.SpanRecord] =
        s +: childrenOf.getOrElse(s.id, Nil).flatMap(inclusive)
      /** Mean Spark work of one `name` span, its child spans included. */
      def spanWork(name: String): (Double, Double, Double, Double) = {
        val ss = byName.getOrElse(name, Nil).map(inclusive)
        def avg(f: Tracer.SpanRecord => Long) = mean(ss.map(_.map(f).sum.toDouble))
        (avg(_.jobs), avg(_.stages), avg(_.tasks), avg(_.shuffleWriteBytes))
      }
      def msP50(name: String): Double = median(byName.getOrElse(name, Nil).map(_.nanos / 1e6))

      // set-up steps: median seconds and mean Spark work per shard
      Seq[(String, SetupTimes => Double)](
          "corpus.generate" -> (_.generate),
          "index.posting_lists" -> (_.postingLists),
          "index.row_values" -> (_.rowValues),
          "index.row_super_keys" -> (_.rowSuperKeys),
          "prepare.fetch" -> (_.fetch),
          "prepare.driver_copies" -> (_.driverCopies)).foreach { case (name, f) =>
        val (jobs, _, _, shuffle) = spanWork(name)
        m(s"${name}_s", median(setups.map(f)), "s")
        m(s"$name.spark_jobs", jobs, "count")
        m(s"$name.shuffle_bytes", shuffle, "bytes")
      }

      // hash: single-thread throughput over the first shard's distinct values
      val values = gts.head.distinctValues
      val shard0 = p.shards.head.corpus
      for (h <- Experiments.hashGrid(shard0.avgColumns, shard0.uniqueValues)) {
        val t0 = System.nanoTime()
        var n = 0L
        while (n == 0 || System.nanoTime() - t0 < 50000000L) { values.foreach(h.hash); n += values.size }
        m(s"hash.${h.name.toLowerCase}${h.bits}.values_per_s", n / ((System.nanoTime() - t0) / 1e9), "1/s")
      }
      m("hash.sk_density", mean(p.shards.flatMap(_.skMap.values.map(sk => Bits.popCount(sk).toDouble / Bits.width(sk)))), "ratio")

      // initcol (§7.5.4): posting-list entries of the chosen column vs the best
      val pl = p.queries.map(q => (0 until q.q.qSize).map(gts(q.shardIx).plItems(q.q, _)))
      val chosen = p.queries.indices.map(i => pl(i)(InitColumn.byCardinality(p.queries(i).q.rows)).toDouble)
      m("initcol.pl_items", mean(chosen), "count")
      m("initcol.pl_items_over_best", mean(p.queries.indices.map(i => chosen(i) / math.max(1L, pl(i).min))), "ratio")

      // fetch (MateSpark.prepareQuery + candidates), both modes pooled
      val fetchSpans = byName.getOrElse("fetch", Nil) ++ byName.getOrElse("fetch.scr", Nil)
      m("fetch.ms_p50", median(fetchSpans.map(_.nanos / 1e6)), "ms")
      m("fetch.candidate_pairs", mean(sparkMetrics.values.map(_.candidatePairs.toDouble).toSeq), "count")
      m("fetch.spark_jobs", mean(fetchSpans.map(_.jobs.toDouble)), "count")
      m("fetch.shuffle_bytes", mean(fetchSpans.map(_.shuffleWriteBytes.toDouble)), "bytes")

      // local: latency and tail latency (their spread across seeds is too
      // wide for an end-to-end bound) and Algorithm 1's table filter, per
      // query
      val (localX, localS) = (samples(0)._1, samples(1)._1)
      m("local.query_ms_p90", percentile(localX.ms.toSeq, 90), "ms")
      m("local.query_ms_p90.scr", percentile(localS.ms.toSeq, 90), "ms")
      m("local.query_ms_gmean", localX.gmeanOfSetMedians(p.queries(_).q.set), "ms")
      m("local.query_ms_gmean.scr", localS.gmeanOfSetMedians(p.queries(_).q.set), "ms")
      for (xash <- Seq(true, false)) {
        val sfx = if (xash) "" else ".scr"
        val cs = p.queries.indices.flatMap(qi => localCounters.get((qi, xash)).map((qi, _)))
        m(s"local.tables_evaluated$sfx", mean(cs.map(_._2.tablesEvaluated.toDouble)), "count")
        m(s"local.tables_pruned_rule1$sfx", mean(cs.map(_._2.tablesPrunedRule1.toDouble)), "count")
        m(s"local.tables_skipped_rule2$sfx", mean(cs.map(_._2.tablesSkippedRule2.toDouble)), "count")
        m(s"local.pl_items_seen$sfx", mean(cs.map(_._2.plItemsSeen.toDouble)), "count")
        m(s"local.pl_items_seen_frac$sfx",
          cs.map(_._2.plItemsSeen).sum.toDouble / math.max(1, cs.map(c => p.queries(c._1).plItems.size).sum), "ratio")
      }

      // filter + verify, replayed over every query's fetched pairs
      val mismatches = mutable.ArrayBuffer.empty[String]
      for (xash <- Seq(true, false)) {
        val sfx = if (xash) "" else ".scr"
        val rs = p.queries.indices.map { qi =>
          val r = Replay.run(p, qi, if (xash) Some(p.shard(qi).xash) else None)
          sparkMetrics.get((qi, xash)).foreach { sm =>
            r.mismatches(sm, p.queries(qi).candidates.length).foreach(d => mismatches += s"query ${p.queries(qi).label}$sfx: $d")
          }
          r
        }
        if (xash) {
          val checks = rs.map(_.checks).sum.toDouble
          m("filter.checks", checks / rs.size, "count")
          m("filter.checks_per_s", checks / (rs.map(_.filterNanos).sum / 1e9), "1/s")
          m("filter.pass_frac", rs.map(_.passed).sum / checks, "ratio")
          val tp = rs.map(_.tpRows).sum.toDouble
          m("filter.precision", tp / math.max(1.0, tp + rs.map(_.fpRows).sum), "ratio")
        }
        val passed = rs.map(_.passed).sum.toDouble
        m(s"verify.rows$sfx", passed / rs.size, "count")
        m(s"verify.cells_compared$sfx", mean(rs.map(_.cellsCompared.toDouble)), "count")
        m(s"verify.rows_per_s$sfx", passed / (rs.map(_.verifyNanos).sum / 1e9), "1/s")
        m(s"verify.mapping_cap_hits$sfx", rs.map(_.capHits).sum.toDouble, "count")
      }
      if (mismatches.nonEmpty) {
        mismatches.foreach(d => System.err.println(s"REPLAY MISMATCH (benchmark bug) $d"))
        failures += s"replayed filter/verify counts differ from MateSpark.Metrics on ${mismatches.size} counters"
      } else println(s"replay: filter/verify counts equal MateSpark.Metrics on all ${sparkMetrics.size} traced dataflow calls")

      // dataflow (MateSpark.discover) per query
      for (sfx <- Seq("", ".scr")) {
        val (jobs, stages, tasks, shuffle) = spanWork(s"dataflow.discover$sfx")
        m(s"dataflow.discover_ms_p50$sfx", msP50(s"dataflow.discover$sfx"), "ms")
        m(s"dataflow.jobs_per_query$sfx", jobs, "count")
        m(s"dataflow.stages_per_query$sfx", stages, "count")
        m(s"dataflow.tasks_per_query$sfx", tasks, "count")
        m(s"dataflow.shuffle_bytes_per_query$sfx", shuffle, "bytes")
      }
      m("spark.run.self_ms_p50", median(byName.getOrElse("spark.run", Nil).map(_.selfNanos / 1e6)), "ms")

      // tracing overhead: median over call pairs of traced minus untraced
      for ((s, name) <- samples)
        m(s"overhead.${name}_ms_p50", median(s.tracingOverheadMs.toSeq), "ms")
      out.toSeq
    }

    private def writeSpans(spans: Seq[Tracer.SpanRecord]): Unit = {
      Files.createDirectories(args.out)
      val f = args.out.resolve(s"spans-${w.name}-seed${args.seed}.jsonl")
      Files.write(f, spans.map(_.toJson).mkString("", "\n", "\n").getBytes(StandardCharsets.UTF_8))
      System.err.println(s"perfbench: wrote ${spans.size} spans to $f")
    }
  }

  /** The engine entry points the benchmark times. */
  private final class Engines(spark: SparkSession, p: Prepared) {
    def local(qi: Int, xash: Boolean): MateLocal.Result = {
      val s = p.shard(qi)
      MateLocal.discover(p.queries(qi).plItems, p.queries(qi).q, if (xash) Some(s.xash) else None, s.rows, K)
    }

    def dataflow(qi: Int, xash: Boolean): MateSpark.Result = {
      val s = p.shard(qi)
      if (xash) MateSpark.run(spark, s.pls, s.rowVals, Some(s.rowSk), Some(s.xash), p.queries(qi).q, K)
      else MateSpark.run(spark, s.pls, s.rowVals, None, None, p.queries(qi).q, K)
    }

    /** [[MateSpark.run]]'s steps, each in its own span. */
    def dataflowTraced(qi: Int, xash: Boolean, tracer: Tracer): MateSpark.Result = {
      val sfx = if (xash) "" else ".scr"
      val q = p.queries(qi).q
      val s = p.shard(qi)
      tracer.span(s"spark.run$sfx", qi) {
        val cand = tracer.span(s"fetch$sfx", qi) {
          val c = MateSpark.candidates(s.pls, MateSpark.prepareQuery(spark, q)).cache()
          c.count()
          c
        }
        val filter = if (xash) Some((s.rowSk, tracer.span("hash.query_super_keys", qi)(MateSpark.querySuperKeys(spark, q, s.xash)))) else None
        try tracer.span(s"dataflow.discover$sfx", qi)(MateSpark.discover(cand, s.rowVals, filter, K))
        finally cand.unpersist()
      }
    }
  }
}
