package org.apache.spark.perfbench

import org.apache.spark.SparkContext

/** Lives in Spark's package to reach the listener bus, so the benchmark
  * can wait until every job/stage/task event has been delivered before
  * it reads the counters its listener accumulated.
  */
object ListenerBusDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
