package repro.perfbench

import scala.collection.mutable

import repro.corpus.CorpusGen.QueryTable

/** Independent top-k oracle, built from the raw cells only.
  *
  * It shares no code with the engines: it keeps its own value → rows
  * index, and for every row holding a query tuple it enumerates every
  * injective column mapping exactly (no cap). A table's joinability is
  * the largest number of distinct query tuples one mapping matches (§2,
  * Eq. 2); the oracle's answer is the k largest non-zero scores. Tie
  * order among equal scores is not defined by the engines, so only the
  * score lists are compared.
  *
  * @param cells raw `(tableId, colId, rowId, value)` cells of the corpus
  */
final class GroundTruth(cells: Iterator[(Long, Int, Long, String)]) {
  import GroundTruth._

  // rowKey → cell values by column (null past the row's last column)
  private val rows = mutable.HashMap.empty[Long, Array[String]]
  // value → keys of the rows holding it
  private val rowsWith = mutable.HashMap.empty[String, mutable.ArrayBuffer[Long]]
  // value → number of cells holding it (the posting-list length)
  private val cellCount = mutable.HashMap.empty[String, Long].withDefaultValue(0L)

  cells.foreach { case (t, c, r, v0) =>
    val v   = normalize(v0)
    val key = rowKey(t, r)
    val row = rows.getOrElseUpdate(key, new Array[String](8))
    val grown = if (row.length > c) row else java.util.Arrays.copyOf(row, 2 * (c + 1))
    grown(c) = v
    if (grown ne row) rows(key) = grown
    rowsWith.getOrElseUpdate(v, mutable.ArrayBuffer.empty) += key
    cellCount(v) += 1
  }

  /** The k largest non-zero joinability scores for `q`, descending. */
  def topKScores(q: QueryTable, k: Int): Seq[Long] = {
    val tuples = q.tuples.map(_.map(normalize)).distinct
    // tableId → mapping → ids of the tuples it matches
    val perTable = mutable.HashMap.empty[Long, mutable.HashMap[Long, mutable.BitSet]]
    // a row holding the tuple holds its rarest value: scan only those rows
    def rowsHolding(tuple: Seq[String]): Seq[Long] =
      tuple.map(v => rowsWith.getOrElse(v, mutable.ArrayBuffer.empty[Long])).minBy(_.size).distinct.toSeq
    for ((tuple, ti) <- tuples.zipWithIndex; key <- rowsHolding(tuple)) {
      val row = rows(key)
      forEachMapping(tuple, row) { m =>
        perTable.getOrElseUpdate(tableOf(key), mutable.HashMap.empty)
          .getOrElseUpdate(m, mutable.BitSet.empty) += ti
      }
    }
    perTable.values.map(_.values.map(_.size.toLong).max).filter(_ > 0)
      .toSeq.sorted(Ordering[Long].reverse).take(k)
  }

  /** Every distinct normalised cell value of the corpus. */
  def distinctValues: Seq[String] = cellCount.keys.toSeq

  /** Posting-list entries fetched if column `i` of `q` is the init column. */
  def plItems(q: QueryTable, i: Int): Long =
    q.rows.map(r => normalize(r(i))).distinct.map(cellCount).sum
}

object GroundTruth {

  def normalize(v: String): String = if (v == null) "" else v.trim.toLowerCase

  private def rowKey(t: Long, r: Long): Long = (t << 32) | r
  private def tableOf(key: Long): Long = key >>> 32

  /** Calls `f` with every injective mapping (query position → column)
    * under which `row` holds `tuple`, packed 10 bits per position.
    */
  private def forEachMapping(tuple: Seq[String], row: Array[String])(f: Long => Unit): Unit = {
    val used = new Array[Boolean](row.length)
    def rec(i: Int, packed: Long): Unit =
      if (i == tuple.length) f(packed)
      else {
        var c = 0
        while (c < row.length) {
          if (!used(c) && tuple(i) == row(c)) {
            used(c) = true
            rec(i + 1, packed | (c.toLong << (10 * i)))
            used(c) = false
          }
          c += 1
        }
      }
    rec(0, 0L)
  }
}
