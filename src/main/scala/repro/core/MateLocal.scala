package repro.core

import repro.corpus.CorpusGen.QueryTable
import repro.hash.SuperKeyHash
import repro.util.Bits

/** Faithful sequential implementation of Algorithm 1 (§6), including the
  * two table-filtering rules and early termination that the distributed
  * dataflow ([[MateSpark]]) cannot express order-dependently.
  *
  * Mirrors the paper's architecture: posting lists are fetched once
  * (from the Spark index, by the caller) and the top-k loop runs on the
  * driver.
  */
object MateLocal {

  /** One fetched posting-list item for a candidate row. */
  final case class PlItem(tableId: Long, rowId: Long, value: String, sk: Array[Byte])

  final case class Counters(
      var tablesEvaluated: Int = 0,
      var tablesPrunedRule1: Int = 0,
      var tablesSkippedRule2: Int = 0,
      var plItemsSeen: Long = 0,
      var rowsPassedFilter: Long = 0,
      var rowsVerified: Long = 0,
      var cellsCompared: Long = 0)

  final case class Result(topK: Seq[(Long, Long)], counters: Counters)

  /** Run Algorithm 1.
    *
    * @param pls        fetched PL items for the init-column values
    * @param q          the query table (key columns only)
    * @param hash       hash used for query super keys; `None` disables
    *                   the row filter (SCR mode) but keeps both
    *                   table-filtering rules, as in §7.1.1
    * @param fetchRows  row-value lookup for verification:
    *                   tableId → rowId → (colId → value)
    * @param k          number of tables to return
    * @param useTableFilter disable to measure the rules' contribution
    */
  def discover(
      pls: Seq[PlItem],
      q: QueryTable,
      hash: Option[SuperKeyHash],
      fetchRows: Long => Map[Long, Map[Int, String]],
      k: Int,
      useTableFilter: Boolean = true): Result = {

    val counters = Counters()
    val initCol  = InitColumn.byCardinality(q.rows)
    val tuples   = q.tuples.map(_.map(SuperKeyHash.normalize))

    // Line 6: dictionary init value → (tupleId, tuple, query super key).
    val superkeyMapQ: Map[String, Seq[(Int, Seq[String], Option[Array[Byte]])]] =
      tuples.zipWithIndex
        .map { case (t, i) => (t(initCol), (i, t, hash.map(_.superKey(t)))) }
        .groupBy(_._1).view.mapValues(_.map(_._2)).toMap

    // Line 5: group by table, sorted by PL-item count descending.
    val candidateTables: Seq[(Long, Seq[PlItem])] =
      pls.groupBy(_.tableId).toSeq
        .sortBy { case (t, items) => (-items.size, t) }

    // TOPK: min-heap on joinability.
    val topK = scala.collection.mutable.PriorityQueue.empty[(Long, Long)](
      Ordering.by[(Long, Long), Long](_._2).reverse)
    def jk: Long = topK.head._2

    var halted = false
    for ((tableId, tablePls) <- candidateTables if !halted) {
      val lt = tablePls.size.toLong
      // Rule 1 (line 9): tables are sorted, so once L_t ≤ j_k nothing
      // later can enter the top-k — halt the whole scan.
      if (useTableFilter && topK.size == k && lt <= jk) {
        counters.tablesPrunedRule1 += 1
        halted = true
      } else {
        counters.tablesEvaluated += 1
        var rChecked = 0L
        var rMatch   = 0L
        var skipped  = false
        val candidatePairs = scala.collection.mutable.ArrayBuffer.empty[(PlItem, Int, Seq[String])]

        for (pl <- tablePls if !skipped) {
          // Rule 2 (line 14): remaining rows cannot lift this table
          // past the worst top-k table.
          if (useTableFilter && topK.size == k && lt - rChecked + rMatch <= jk) {
            counters.tablesSkippedRule2 += 1
            skipped = true
          } else {
            counters.plItemsSeen += 1
            rChecked += 1
            for ((tid, tuple, qsk) <- superkeyMapQ.getOrElse(pl.value, Seq.empty)) {
              val pass = qsk match {
                case Some(sk) => Bits.subsetOf(sk, pl.sk) // line 18 masking
                case None     => true                      // SCR: no row filter
              }
              if (pass) {
                candidatePairs += ((pl, tid, tuple))
                rMatch += 1
                counters.rowsPassedFilter += 1
              }
            }
          }
        }

        // calculateJ (line 21): exact verification of surviving rows,
        // best single mapping per table (§2, Eq. 2). A rule-2 skip jumps
        // straight to the next table (line 15) — the table cannot beat
        // j_k, so its partial candidates are discarded unverified.
        if (candidatePairs.nonEmpty && !skipped) {
          val rows  = fetchRows(tableId)
          val score = new Joinability.TableScore
          for ((pl, tid, tuple) <- candidatePairs; rv <- rows.get(pl.rowId)) {
            counters.rowsVerified += 1
            counters.cellsCompared += rv.size
            Joinability.rowMappings(tuple, rv).foreach(score.add(tid, _))
          }
          val j = score.j
          if (j > 0) {
            if (topK.size < k) topK.enqueue((tableId, j))
            else if (j > jk) { topK.dequeue(); topK.enqueue((tableId, j)) }
          }
        }
      }
    }

    Result(topK.toSeq.sortBy(t => (-t._2, t._1)), counters)
  }
}
