package repro.hash

import java.nio.charset.StandardCharsets

import repro.util.Bits

/** Bloom-filter-family baselines of §7.1.2: HT, BF, LHBF.
  *
  * All three set a *small* number of bits per value (unlike the raw
  * digests in [[StandardHashes]]), which is why they are the paper's
  * strongest baselines.
  */
object BloomHashes {

  /** Paper's hash count: H = (|a| / V) · ln 2, where V is the average
    * number of columns per table in the corpus (the number of values
    * OR-ed into one super key). Derived from the classic BF optimum by
    * setting the FP target; floored at 1.
    */
  def optimalHashCount(bits: Int, avgColumns: Double): Int =
    math.max(1, math.round(bits / avgColumns * math.log(2)).toInt)

  private def bitOf(v: Array[Byte], seed: Int, bits: Int): Int =
    SuperKeyHash.posMod(Murmur3.hash64(v, seed), bits)

  /** Hash table (HT): a single Murmur3 hash setting one bit. */
  final case class Ht(bits: Int = 128) extends SuperKeyHash {
    require(bits % 8 == 0 && bits >= 64)
    val name = "HT"
    override def hash(value: String): Array[Byte] = {
      val v = SuperKeyHash.normalize(value).getBytes(StandardCharsets.UTF_8)
      Bits.fromBits(bits, Seq(bitOf(v, 0, bits)))
    }
  }

  /** Standard bloom filter with `h` independent Murmur3 hash functions. */
  final case class Bf(bits: Int = 128, h: Int = 8) extends SuperKeyHash {
    require(bits % 8 == 0 && bits >= 64 && h >= 1)
    val name = "BF"
    override def hash(value: String): Array[Byte] = {
      val v = SuperKeyHash.normalize(value).getBytes(StandardCharsets.UTF_8)
      Bits.fromBits(bits, (0 until h).map(i => bitOf(v, i, bits)))
    }
  }

  /** Less-Hashing bloom filter [Kirsch & Mitzenmacher 2006]: two base
    * hashes h1, h2 simulate `h` functions via g_i = h1 + i·h2.
    */
  final case class Lhbf(bits: Int = 128, h: Int = 8) extends SuperKeyHash {
    require(bits % 8 == 0 && bits >= 64 && h >= 1)
    val name = "LHBF"
    override def hash(value: String): Array[Byte] = {
      val v  = SuperKeyHash.normalize(value).getBytes(StandardCharsets.UTF_8)
      val h1 = Murmur3.hash64(v, 1)
      val h2 = Murmur3.hash64(v, 2)
      Bits.fromBits(bits, (0 until h).map(i => SuperKeyHash.posMod(h1 + i.toLong * h2, bits)))
    }
  }
}

/** Registry used by benches and jobs to enumerate hash configurations. */
object Hashes {

  /** Construct by paper name.
    *
    * @param avgColumns corpus average column count V — used only by BF
    *                   and LHBF for the paper's H = (|a|/V)·ln2 formula.
    * @param cUnique    corpus unique-value count — used only by XASH for
    *                   Eq. 5's α, floored at the paper's example α = 4:
    *                   on a scaled-down corpus Eq. 5 gives α = 2, one
    *                   character bit (DESIGN.md §4).
    */
  def byName(name: String, bits: Int, avgColumns: Double = 5.0, cUnique: Long = 1L << 20): SuperKeyHash =
    name.toUpperCase match {
      case "XASH"    => Xash(bits, math.max(4, Xash.optimalAlpha(bits, cUnique)))
      case "MD5"     => StandardHashes.Md5(bits)
      case "MURMUR"  => StandardHashes.Murmur(bits)
      case "CITY"    => StandardHashes.CityLike(bits)
      case "SIMHASH" => StandardHashes.SimHash(bits)
      case "HT"      => BloomHashes.Ht(bits)
      case "BF"      => BloomHashes.Bf(bits, BloomHashes.optimalHashCount(bits, avgColumns))
      case "LHBF"    => BloomHashes.Lhbf(bits, BloomHashes.optimalHashCount(bits, avgColumns))
      case other     => throw new IllegalArgumentException(s"unknown hash: $other")
    }

  val all: Seq[String] = Seq("XASH", "MD5", "MURMUR", "CITY", "SIMHASH", "HT", "BF", "LHBF")
}
