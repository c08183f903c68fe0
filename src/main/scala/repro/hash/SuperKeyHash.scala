package repro.hash

import repro.util.Bits

/** A hash function that maps one cell value to a fixed-size bit vector.
  *
  * Super keys (§5.1) are the bit-wise OR of the per-value hashes of all
  * cells in a table row. A query key combination is checked against a
  * row by testing whether the OR of the key-value hashes is a subset of
  * the row's super key — a single operation that can yield false
  * positives but never false negatives (lemma in §6.3).
  */
trait SuperKeyHash extends Serializable {

  /** Display name, e.g. "XASH", "BF", "MD5". */
  def name: String

  /** Hash width in bits (128 / 256 / 512 in the paper). */
  def bits: Int

  /** Hash a single cell value to a `bits`-wide vector. */
  def hash(value: String): Array[Byte]

  /** OR-aggregate the hashes of all values of a row into its super key. */
  def superKey(values: Iterable[String]): Array[Byte] = {
    val sk = Bits.zero(bits)
    values.foreach(v => Bits.orInPlace(sk, hash(v)))
    sk
  }

  override def toString: String = s"$name-$bits"
}

/** Shared helpers: value normalisation and 64-bit seeding primitives. */
object SuperKeyHash {

  /** Cell values are compared case-insensitively, as strings: `trim`
    * strips every char up to U+0020 and lower-casing ignores the default
    * locale. `null` is treated as the empty string. The index applies
    * this same function ([[repro.index.InvertedIndex]]).
    */
  def normalize(value: String): String =
    if (value == null) "" else value.trim.toLowerCase(java.util.Locale.ROOT)

  /** splitmix64 — cheap avalanche step used for seeding derived hashes. */
  def mix64(x0: Long): Long = {
    var x = x0 + 0x9e3779b97f4a7c15L
    x = (x ^ (x >>> 30)) * 0xbf58476d1ce4e5b9L
    x = (x ^ (x >>> 27)) * 0x94d049bb133111ebL
    x ^ (x >>> 31)
  }

  /** Positive modulo for Long → [0, m). */
  def posMod(x: Long, m: Int): Int = {
    val r = (x % m).toInt
    if (r < 0) r + m else r
  }
}
