package repro

import repro.core.Joinability.{TableScore, rowMappings}
import repro.hash.SuperKeyHash

/** Results computed locally, without Spark, for the tests to compare with. */
object Reference {

  /** Ground-truth joinability of one candidate table against a set of
    * distinct query tuples: the local reference the tests compare the
    * engines against.
    */
  def groundTruth(tuples: Seq[Seq[String]], rows: Iterable[Map[Int, String]]): Long = {
    val normTuples = tuples.map(_.map(SuperKeyHash.normalize)).distinct
    val score      = new TableScore
    for (row <- rows; (t, ti) <- normTuples.zipWithIndex) rowMappings(t, row).foreach(score.add(ti, _))
    score.j
  }
}
