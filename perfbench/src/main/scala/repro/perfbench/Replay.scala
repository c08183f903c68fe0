package repro.perfbench

import repro.core.{Joinability, MateSpark}
import repro.hash.SuperKeyHash
import repro.util.Bits

/** Replays the row filter and exact verification of one query from
  * outside the engines: over exactly the fetched candidate pairs, it
  * times [[Bits.subsetOf]] (`qsk ⊆ sk`) and [[Joinability.rowMappings]]
  * and counts the same quantities [[MateSpark.Metrics]] reports, so the
  * two can be asserted equal.
  */
object Replay {

  /** `hash = None` replays SCR: no filter, every pair is verified. */
  final case class Result(
      checks: Long,          // subset tests (0 for SCR)
      passed: Long,          // pairs sent to verification
      rows: Long,            // distinct rows verified
      tpRows: Long,          // verified rows holding a tuple under some mapping
      cellsCompared: Long,
      capHits: Long,         // pairs whose mapping enumeration hit the 64 cap
      filterNanos: Long,
      verifyNanos: Long) {
    def fpRows: Long = rows - tpRows

    /** Differences from the engine's counters for the same query. */
    def mismatches(m: MateSpark.Metrics, candidatePairs: Long): Seq[String] = Seq(
      ("candidatePairs", candidatePairs, m.candidatePairs),
      ("maskChecks", checks, m.maskChecks),
      ("verifiedPairs", passed, m.verifiedPairs),
      ("rowsChecked", rows, m.rowsChecked),
      ("tpRows", tpRows, m.tpRows),
      ("fpRows", fpRows, m.fpRows),
      ("cellsCompared", cellsCompared, m.cellsCompared))
      .collect { case (n, replayed, engine) if replayed != engine => s"$n replay=$replayed engine=$engine" }
  }

  val MappingCap = 64

  /** A pass over one query's pairs takes microseconds: repeat it for at
    * least 2 ms and return the mean nanoseconds per pass.
    */
  private def perPass(pass: => Unit): Long = {
    val t0 = System.nanoTime()
    var n = 0L
    while (n == 0 || System.nanoTime() - t0 < 2000000L) { pass; n += 1 }
    (System.nanoTime() - t0) / n
  }

  def run(p: Prepared, qi: Int, hash: Option[SuperKeyHash]): Result = {
    val shard  = p.shard(qi)
    val cands  = p.queries(qi).candidates
    val tuples = p.queries(qi).q.tuples.map(_.map(SuperKeyHash.normalize))
    val qsk    = hash.map(h => tuples.map(h.superKey(_)).toArray)
    val sks    = cands.map(c => shard.skMap((c.tableId, c.rowId)))
    val vals   = cands.map(c => shard.rows(c.tableId)(c.rowId))

    // Row filter: one subset test per candidate pair.
    val pass = new Array[Boolean](cands.length)
    val filterNanos = perPass {
      qsk match {
        case Some(q) =>
          var i = 0
          while (i < cands.length) { pass(i) = Bits.subsetOf(q(cands(i).qTupleId), sks(i)); i += 1 }
        case None => java.util.Arrays.fill(pass, true)
      }
    }

    // Exact verification of the surviving pairs.
    val counts = new Array[Int](cands.length)
    val verifyNanos = perPass {
      var i = 0
      while (i < cands.length) {
        if (pass(i)) counts(i) = Joinability.rowMappings(cands(i).tuple, vals(i)).size
        i += 1
      }
    }

    val verified = cands.indices.filter(pass(_))
    val byRow = verified.groupBy(j => (cands(j).tableId, cands(j).rowId))
    Result(
      checks = if (qsk.isDefined) cands.length.toLong else 0L,
      passed = verified.size.toLong,
      rows = byRow.size.toLong,
      tpRows = byRow.values.count(_.exists(counts(_) > 0)).toLong,
      cellsCompared = verified.map(vals(_).size.toLong).sum,
      capHits = verified.count(counts(_) == MappingCap).toLong,
      filterNanos = filterNanos,
      verifyNanos = verifyNanos)
  }
}
