package org.apache.spark

import java.util.concurrent.atomic.AtomicInteger

import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.apache.spark.sql.SparkSession

/** Counts the Spark jobs a block of code launches. Lives in Spark's
  * package to drain the listener bus, so every job-start event of the
  * block, and none from before it, has reached the counter.
  */
object SparkJobCounter {
  def apply[A](spark: SparkSession)(body: => A): (A, Int) = {
    val sc = spark.sparkContext
    sc.listenerBus.waitUntilEmpty()
    val jobs = new AtomicInteger
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = jobs.incrementAndGet()
    }
    sc.addSparkListener(listener)
    try {
      val out = body
      sc.listenerBus.waitUntilEmpty()
      (out, jobs.get)
    } finally sc.removeSparkListener(listener)
  }
}
