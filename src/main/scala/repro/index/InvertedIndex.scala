package repro.index

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

import repro.hash.SuperKeyHash

/** The paper's extended inverted index (§5.1):
  *
  *   value ↦ { (tableId, colId, rowId, superKey), … }
  *
  * built as a Spark dataflow over the cells DataFrame:
  *
  *  1. the cells are grouped into per-row value maps ([[rowValues]]),
  *     and
  *  2. a row's super key is the bit-wise OR of the configured
  *     [[SuperKeyHash]]'s hashes of its values, one UDF call per row of
  *     the row values ([[rowSuperKeys]]).
  *
  * Values are normalised by [[SuperKeyHash.normalize]] on the index
  * side (as a UDF) and on the query side, so joins match the paper's
  * exact-value equality.
  */
object InvertedIndex {

  /** [[SuperKeyHash.normalize]] as a UDF: the one definition the index
    * and the queries share. A mirror in Catalyst expressions drifts from
    * it; Catalyst's `trim`, for one, strips only U+0020.
    */
  private val normalize = udf((v: String) => SuperKeyHash.normalize(v)).asNonNullable()

  /** Posting lists without super keys: `(value, tableId, colId, rowId)`.
    * This is the plain single-attribute inverted index every baseline
    * shares (§3); hash-specific super keys are joined in separately so
    * one corpus supports many hash configurations.
    */
  def postingLists(cells: DataFrame): DataFrame =
    cells.select(
      normalize(col("value")) as "value",
      col("tableId"), col("colId"), col("rowId"))

  /** Per-row value maps `(tableId, rowId, vals: map<colId,value>)` used
    * by the exact verification step (calculateJ fetches actual cell
    * values, §6), and by the dataflow to find each row's candidates.
    * They aggregate the [[postingLists]] projection, so when the posting
    * lists are cached first Spark reads the cache and each cell is
    * normalised once.
    */
  def rowValues(cells: DataFrame): DataFrame =
    postingLists(cells).groupBy("tableId", "rowId")
      .agg(map_from_entries(collect_list(struct(col("colId"), col("value")))) as "vals")

  /** Per-row super keys `(tableId, rowId, sk)` for one hash function: a
    * row's `sk` is `hash.superKey` of its [[rowValues]]. Every hash
    * normalises what it hashes, so the normalised values give the bits
    * of the raw cells. A narrow map: built after the row values are
    * cached, the keys read that cache and keep its partitions and its
    * row order, which [[repro.core.MateSpark]] relies on to read them in
    * lockstep with the row values.
    */
  def rowSuperKeys(cells: DataFrame, hash: SuperKeyHash): DataFrame = {
    val superKey = udf((vals: Seq[String]) => hash.superKey(vals))
    rowValues(cells).select(col("tableId"), col("rowId"), superKey(map_values(col("vals"))) as "sk")
  }

  /** The full §5.1 index `(value, tableId, colId, rowId, sk)`. */
  def build(cells: DataFrame, hash: SuperKeyHash): DataFrame =
    postingLists(cells).join(rowSuperKeys(cells, hash), Seq("tableId", "rowId"))

  /** Index storage accounting (§7.1 "Index generation"): bytes of super
    * keys stored per cell vs per row, for EXPERIMENTS.md.
    */
  def storageStats(cells: DataFrame, bits: Int): (Long, Long, Long, Long) = {
    val nCells = cells.count()
    val nRows  = cells.select("tableId", "rowId").distinct().count()
    (nCells, nRows, nCells * bits / 8, nRows * bits / 8)
  }
}
