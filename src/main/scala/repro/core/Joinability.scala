package repro.core

/** Joinability semantics of §2.
  *
  * j(R, S) = max over column permutations Y' of |π_X(R) ∩ π_Y'(S)|
  * (Eq. 2): the number of distinct query key tuples that appear in the
  * candidate table under the single best column mapping.
  *
  * A column mapping assigns each query key position i a distinct column
  * c; it is packed into one `Long`, column c in bits 8i until 8i + 8.
  * So a query has at most 8 key columns and a mapped column id is below
  * 256; anything larger fails a `require` rather than being truncated.
  */
object Joinability {

  /** Calls `f` with every injective column mapping under which the row
    * holds `tuple`: position i maps to a column `cols(c)` with
    * `vals(c) == tuple(i)` (values pre-normalised). Enumeration is
    * exact, with no bound on the number of mappings.
    */
  def forEachMapping(tuple: Array[String], cols: Array[Int], vals: Array[String])(f: Long => Unit): Unit = {
    require(tuple.length <= 8, s"a packed mapping holds at most 8 query columns, not ${tuple.length}")
    val used = new Array[Boolean](cols.length)
    def rec(i: Int, packed: Long): Unit =
      if (i == tuple.length) f(packed)
      else for (c <- cols.indices) if (!used(c) && vals(c) == tuple(i)) {
        require((cols(c) & ~0xff) == 0, s"a packed mapping holds column ids 0 to 255, not ${cols(c)}")
        used(c) = true
        rec(i + 1, packed | (cols(c).toLong << (8 * i)))
        used(c) = false
      }
    rec(0, 0L)
  }

  /** Every packed mapping under which the row `cols` → `vals` holds `tuple`. */
  def mappings(tuple: Array[String], cols: Array[Int], vals: Array[String]): Array[Long] = {
    val out = Array.newBuilder[Long]
    forEachMapping(tuple, cols, vals)(out += _)
    out.result()
  }

  /** [[mappings]] of a row given as a column → value map. */
  def rowMappings(tuple: Seq[String], row: Map[Int, String]): Array[Long] = {
    val (cols, vals) = row.toArray.unzip
    mappings(tuple.toArray, cols, vals)
  }

  /** Joinability of one table from its verified rows (§2, Eq. 2): each
    * mapping collects the ids of the query tuples it matched, and j is
    * the largest such set, 0 when no row matches under any mapping.
    * Both engines and the tests' ground truth score tables with it.
    */
  final class TableScore {
    private val tuplesOf = collection.mutable.LongMap.empty[collection.mutable.BitSet]

    def add(tupleId: Int, mapping: Long): Unit =
      tuplesOf.getOrElseUpdate(mapping, collection.mutable.BitSet.empty) += tupleId

    def j: Long = tuplesOf.valuesIterator.map(_.size.toLong).maxOption.getOrElse(0L)
  }
}
