package repro.core

import repro.hash.SuperKeyHash

/** Initial query-column selection (§6.1, evaluated in §7.5.4).
  *
  * MATE fetches posting lists for exactly one key column; the heuristics
  * below pick it. All operate on the query table alone except
  * best/worst, which are the oracle bounds and need per-column PL
  * counts from the corpus.
  */
object InitColumn {

  /** Key columns of the query rows; 0 for a query with no rows. */
  private def width(rows: Seq[Seq[String]]): Int = rows.headOption.fold(0)(_.length)

  /** Distinct-value count per key column of the query rows. */
  def cardinalities(rows: Seq[Seq[String]]): Seq[Int] = {
    val q = width(rows)
    (0 until q).map(i => rows.map(r => SuperKeyHash.normalize(r(i))).distinct.size)
  }

  /** MATE's heuristic: the column with the smallest cardinality (0 for
    * a query with no rows).
    */
  def byCardinality(rows: Seq[Seq[String]]): Int = {
    val cs = cardinalities(rows)
    cs.minOption.fold(0)(cs.indexOf)
  }

  /** Baseline (i): first column in table order. */
  def byColumnOrder(rows: Seq[Seq[String]]): Int = 0

  /** Baseline (ii) "TLS": the column containing the longest cell value. */
  def byLongestString(rows: Seq[Seq[String]]): Int =
    (0 until width(rows)).maxByOption(i => rows.map(r => SuperKeyHash.normalize(r(i)).length).max).getOrElse(0)

  /** Oracle bounds: given per-column fetched-PL counts, the best column
    * minimises and the worst maximises the count (§7.5.4's ground truth
    * and worst-case baselines).
    */
  def best(plCounts: Seq[Long]): Int  = plCounts.indexOf(plCounts.min)
  def worst(plCounts: Seq[Long]): Int = plCounts.indexOf(plCounts.max)
}
