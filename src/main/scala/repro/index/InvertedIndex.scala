package repro.index

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.expressions.Aggregator
import org.apache.spark.sql.functions._
import org.apache.spark.sql.Encoder
import org.apache.spark.sql.Encoders

import repro.hash.SuperKeyHash
import repro.util.Bits

/** The paper's extended inverted index (§5.1):
  *
  *   value ↦ { (tableId, colId, rowId, superKey), … }
  *
  * built as a Spark dataflow over the cells DataFrame:
  *
  *  1. every cell value is hashed with the configured [[SuperKeyHash]]
  *     via a DataFrame UDF, and
  *  2. the per-row super key is the bit-wise OR aggregation of those
  *     hashes (`groupBy(tableId, rowId)` + custom [[OrAgg]] UDAF).
  *
  * Values are normalised by [[SuperKeyHash.normalize]] on the index
  * side (as a UDF) and on the query side, so joins match the paper's
  * exact-value equality.
  */
object InvertedIndex {

  /** Bit-wise OR aggregator over binary super keys. */
  final class OrAgg(bits: Int) extends Aggregator[Array[Byte], Array[Byte], Array[Byte]] {
    override def zero: Array[Byte] = Bits.zero(bits)
    override def reduce(b: Array[Byte], a: Array[Byte]): Array[Byte] = Bits.orInPlace(b, a)
    override def merge(b1: Array[Byte], b2: Array[Byte]): Array[Byte] = Bits.orInPlace(b1, b2)
    override def finish(r: Array[Byte]): Array[Byte] = r
    override def bufferEncoder: Encoder[Array[Byte]] = Encoders.BINARY
    override def outputEncoder: Encoder[Array[Byte]] = Encoders.BINARY
  }

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

  /** Per-row super keys `(tableId, rowId, sk)` for one hash function —
    * the XASH-per-cell UDF followed by the OR aggregation.
    */
  def rowSuperKeys(cells: DataFrame, hash: SuperKeyHash): DataFrame = {
    val hashUdf = udf((v: String) => hash.hash(v))
    val orAgg   = udaf(new OrAgg(hash.bits))
    cells.groupBy("tableId", "rowId")
      .agg(orAgg(hashUdf(col("value"))) as "sk")
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
