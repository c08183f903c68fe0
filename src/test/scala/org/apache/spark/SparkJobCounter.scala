package org.apache.spark

import java.util.concurrent.atomic.AtomicInteger

import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskStart}
import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.execution.QueryExecution
import org.apache.spark.sql.util.QueryExecutionListener

/** Counts the Spark jobs a block of code launches, and their tasks.
  * Lives in Spark's package to drain the listener bus, so every event of
  * the block, and none from before it, has reached the counter.
  */
object SparkJobCounter {
  final case class Counts(jobs: Int, tasks: Int)

  def apply[A](spark: SparkSession)(body: => A): (A, Counts) = {
    val tasks = new AtomicInteger
    val (out, jobs) = ListenerCount(spark) { n =>
      val sc = spark.sparkContext
      val listener = new SparkListener {
        override def onJobStart(e: SparkListenerJobStart): Unit = n.incrementAndGet()
        override def onTaskStart(e: SparkListenerTaskStart): Unit = tasks.incrementAndGet()
      }
      sc.addSparkListener(listener)
      () => sc.removeSparkListener(listener)
    }(body)
    (out, Counts(jobs, tasks.get))
  }
}

/** Counts the SQL query executions (DataFrame actions, successful or
  * not) a block of code records, draining the listener bus like
  * [[SparkJobCounter]].
  */
object SqlExecutionCounter {
  def apply[A](spark: SparkSession)(body: => A): (A, Int) =
    ListenerCount(spark) { n =>
      val listener = new QueryExecutionListener {
        override def onSuccess(funcName: String, qe: QueryExecution, durationNs: Long): Unit = n.incrementAndGet()
        override def onFailure(funcName: String, qe: QueryExecution, exception: Exception): Unit = n.incrementAndGet()
      }
      spark.listenerManager.register(listener)
      () => spark.listenerManager.unregister(listener)
    }(body)
}

private object ListenerCount {
  /** Runs `body` between two drains of the listener bus, with the
    * listener `install` registers (it returns the unregistering call).
    */
  def apply[A](spark: SparkSession)(install: AtomicInteger => () => Unit)(body: => A): (A, Int) = {
    val bus = spark.sparkContext.listenerBus
    bus.waitUntilEmpty()
    val n = new AtomicInteger
    val uninstall = install(n)
    try {
      val out = body
      bus.waitUntilEmpty()
      (out, n.get)
    } finally uninstall()
  }
}
