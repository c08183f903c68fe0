package repro.bench

import repro.SparkSpec
import repro.harness.Experiments

/** Reproduces paper Table 2: discovery runtime per query set for SCR
  * and every hash configuration (MD5/Murmur/City at 128; SimHash, HT,
  * BF, LHBF, XASH at 128/256/512), k = 10.
  *
  * Absolute seconds are not comparable to the paper's server+Vertica
  * setup; next to wall-clock we print the deterministic verification
  * work (cells compared — the quantity the paper attributes runtime
  * differences to, §7.2–7.3). The shape under test: SCR pays the most,
  * raw digests prune little, BF/HT/LHBF prune well, XASH prunes best.
  */
class Table2Bench extends SparkSpec {

  test("Table 2: runtime (ms and cells compared) per query set × hash") {
    println(Experiments.table2(BenchGrid.grid))

    // --- shape assertions (paper §7.2/§7.3 claims) ---
    for (set <- Experiments.setOrder) {
      val scr  = BenchGrid.byConfig(set, "SCR", 0).get
      val xash = BenchGrid.byConfig(set, "XASH", 128).get
      val md5  = BenchGrid.byConfig(set, "MD5", 128).get
      val bf   = BenchGrid.byConfig(set, "BF", 128).get
      // every filter only reduces verification work vs SCR
      assert(xash.cellsCompared <= scr.cellsCompared, s"$set: XASH vs SCR")
      assert(bf.cellsCompared <= scr.cellsCompared, s"$set: BF vs SCR")
      assert(md5.cellsCompared <= scr.cellsCompared, s"$set: MD5 vs SCR")
      // XASH filters at least as hard as the raw digest
      assert(xash.cellsCompared <= md5.cellsCompared, s"$set: XASH vs MD5")
    }
    // aggregate ordering: XASH ≈ BF ≪ MD5 ≤ SCR on total verification work.
    // XASH and BF are allowed a 15% band: the paper's own Table 3 has BF
    // ahead of XASH at 128 bits on the OD sets (wide tables saturate the
    // α·V-bit XASH super key), and our synthetic corpus compresses the
    // remaining gap (EXPERIMENTS.md).
    def total(c: String, b: Int) =
      Experiments.setOrder.map(s => BenchGrid.byConfig(s, c, b).get.cellsCompared).sum
    assert(total("XASH", 128) <= total("BF", 128) * 1.15, "XASH should track BF overall")
    assert(total("XASH", 128) <= total("HT", 128), "XASH should out-filter HT overall")
    assert(total("BF", 128) <= total("MD5", 128), "BF should out-filter MD5 overall")
    assert(total("MD5", 128) <= total("SCR", 0), "any filter beats no filter overall")

    // sequential (paper-comparable) runtime: filters beat SCR on the
    // FP-heavy sets, and XASH stays ahead of the raw digests overall
    def localTotal(c: String, b: Int) =
      Experiments.setOrder.map(s => BenchGrid.byConfig(s, c, b).get.localMicros).sum
    assert(localTotal("XASH", 128) <= localTotal("SCR", 0),
      "XASH sequential discovery should beat SCR")
    assert(localTotal("XASH", 128) <= localTotal("MD5", 128),
      "XASH sequential discovery should beat MD5 super keys")
  }
}
