package repro.perfbench

/** Percentiles and the benchmark's one-line JSON result. */
object Stats {

  /** Linear-interpolated percentile `p` ∈ [0, 100] of `xs`; NaN if empty. */
  def percentile(xs: Seq[Double], p: Double): Double = if (xs.isEmpty) Double.NaN else {
    val s = xs.sorted
    val pos = p / 100 * (s.size - 1)
    val lo = math.floor(pos).toInt
    val hi = math.min(lo + 1, s.size - 1)
    s(lo) + (s(hi) - s(lo)) * (pos - lo)
  }

  def median(xs: Seq[Double]): Double = percentile(xs, 50)

  def mean(xs: Seq[Double]): Double = if (xs.isEmpty) 0.0 else xs.sum / xs.size

  def geoMean(xs: Seq[Double]): Double = if (xs.isEmpty) Double.NaN else math.exp(xs.map(math.log).sum / xs.size)

  final case class Metric(name: String, value: Double, unit: String)

  private def num(v: Double): String =
    if (v.isNaN || v.isInfinite) "null"
    else if (v == math.rint(v) && math.abs(v) < 1e15) v.toLong.toString
    else v.toString

  def resultJson(correct: Boolean, attempted: Long, failed: Long, metrics: Seq[Metric]): String = {
    val ms = metrics.map(m => s""""${m.name}": {"value": ${num(m.value)}, "unit": "${m.unit}"}""")
    s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {${ms.mkString(", ")}}}"""
  }
}
