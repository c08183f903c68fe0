package repro.bench

import repro.SparkSpec
import repro.harness.Experiments

/** Reproduces paper Table 3: row-filter precision TP/(TP+FP) per query
  * set at 128 and 512 bits for MD5, CityHash, SimHash, HT, BF, LHBF and
  * XASH. Paper averages: MD5 .22, City .22, SimHash .23/.27, HT .33/.41,
  * BF .47/.65, LHBF .38/.61, XASH .57/.90.
  */
class Table3Bench extends SparkSpec {

  test("Table 3: precision per query set × hash (128 / 512 bits)") {
    println(Experiments.table3(BenchGrid.grid))
    def avgP(c: String, b: Int): Double = Experiments.avgPrecision(BenchGrid.grid, c, b)

    // --- shape assertions (paper §7.4) ---
    // XASH achieves the highest average precision at both hash sizes.
    for (b <- Seq(128, 512); other <- Seq("SimHash", "HT", "BF", "LHBF")) {
      assert(avgP("XASH", b) + 1e-9 >= avgP(other, b) - 0.05,
        s"XASH should lead $other at $b bits (${avgP("XASH", b)} vs ${avgP(other, b)})")
    }
    assert(avgP("XASH", 128) > avgP("MD5", 128), "XASH beats raw digests")
    // larger hash sizes raise precision for the sparse-bit families
    for (c <- Seq("BF", "XASH")) {
      assert(avgP(c, 512) + 0.05 >= avgP(c, 128), s"$c: 512 bits should not lose precision")
    }
    // raw digests sit at the bottom, as in the paper
    assert(avgP("MD5", 128) <= avgP("BF", 128))
  }
}
