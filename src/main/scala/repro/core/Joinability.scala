package repro.core

import repro.hash.SuperKeyHash

/** Joinability semantics of §2.
  *
  * j(R, S) = max over column permutations Y' of |π_X(R) ∩ π_Y'(S)|
  * (Eq. 2): the number of distinct query key tuples that appear in the
  * candidate table under the single best column mapping.
  */
object Joinability {

  /** All injective column mappings under which `tuple` matches `row`.
    *
    * A mapping assigns each query key position i a distinct column c
    * with row(c) == tuple(i) (values pre-normalised). Returned as
    * canonical signature strings "0:c0|1:c1|…" so dataflows can group
    * by mapping. Enumeration is capped — a row matching under more
    * than `cap` mappings contributes its first `cap` (tables in the
    * paper's corpora have ≤ ~30 columns and |Q| ≤ 10, so the cap is
    * never the binding constraint in practice).
    */
  def rowMappings(tuple: Seq[String], row: Map[Int, String], cap: Int = 64): Seq[String] = {
    val candCols: Seq[Seq[Int]] =
      tuple.map(v => row.collect { case (c, rv) if rv == v => c }.toSeq.sorted)
    if (candCols.exists(_.isEmpty)) return Seq.empty
    val out  = scala.collection.mutable.ArrayBuffer.empty[String]
    val used = scala.collection.mutable.Set.empty[Int]
    val pick = new Array[Int](tuple.length)
    def rec(i: Int): Unit = {
      if (out.length >= cap) return
      if (i == tuple.length) {
        out += pick.zipWithIndex.map { case (c, q) => s"$q:$c" }.mkString("|")
        return
      }
      for (c <- candCols(i) if !used(c) && out.length < cap) {
        used += c; pick(i) = c
        rec(i + 1)
        used -= c
      }
    }
    rec(0)
    out.toSeq
  }

  /** True iff the row contains the full key tuple in distinct columns. */
  def rowJoinable(tuple: Seq[String], row: Map[Int, String]): Boolean =
    rowMappings(tuple, row, cap = 1).nonEmpty

  /** Joinability of one table from its verified rows (§2, Eq. 2): the
    * best single mapping's distinct-tuple count. `hits` holds, per
    * verified (row × query tuple) pair, the tuple id and the mappings
    * [[rowMappings]] found; 0 when no row matches under any mapping.
    * Both engines and the ground truth score tables with this fold.
    */
  def bestMappingCount(hits: IterableOnce[(Int, Seq[String])]): Long = {
    val perMapping = scala.collection.mutable.Map.empty[String, scala.collection.mutable.Set[Int]]
    for ((ti, mappings) <- hits.iterator; m <- mappings)
      perMapping.getOrElseUpdate(m, scala.collection.mutable.Set.empty) += ti
    perMapping.valuesIterator.map(_.size.toLong).maxOption.getOrElse(0L)
  }

  /** Ground-truth joinability of one candidate table against a set of
    * distinct query tuples (local reference implementation used by tests
    * and Table 1 statistics).
    */
  def groundTruth(tuples: Seq[Seq[String]], rows: Iterable[Map[Int, String]]): Long = {
    val normTuples = tuples.map(_.map(SuperKeyHash.normalize)).distinct
    bestMappingCount(
      for (row <- rows.iterator; (t, ti) <- normTuples.iterator.zipWithIndex) yield (ti, rowMappings(t, row)))
  }
}
