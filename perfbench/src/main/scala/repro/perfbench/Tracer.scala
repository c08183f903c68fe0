package repro.perfbench

import java.util.concurrent.ConcurrentHashMap
import java.util.concurrent.atomic.AtomicLong

import scala.collection.mutable.ArrayBuffer

import org.apache.spark.SparkContext
import org.apache.spark.perfbench.ListenerBusDrain
import org.apache.spark.scheduler._

/** In-memory spans around the calls the benchmark makes into each layer,
  * with Spark work counters attributed to the innermost enclosing span.
  *
  * A span's id travels to Spark as a local property, so every job a call
  * submits carries it; the listener maps job → stages → tasks back to the
  * span. Counters are exact once [[drain]] has let the listener bus
  * deliver every event. When disabled, [[span]] only runs its body.
  */
final class Tracer(sc: SparkContext, val enabled: Boolean) {
  import Tracer._

  private val spans  = ArrayBuffer.empty[Span]
  private var stack  = List.empty[Span]
  private val work   = new ConcurrentHashMap[Int, Work]()
  private val stageSpan = new ConcurrentHashMap[Int, Int]()

  private val listener = new SparkListener {
    private def workOf(spanId: Int): Work = work.computeIfAbsent(spanId, _ => new Work)

    override def onJobStart(e: SparkListenerJobStart): Unit = {
      val id = Option(e.properties).flatMap(p => Option(p.getProperty(SpanProperty))).map(_.toInt).getOrElse(Unattributed)
      workOf(id).jobs.incrementAndGet()
      e.stageIds.foreach(s => stageSpan.put(s, id))
    }
    override def onStageCompleted(e: SparkListenerStageCompleted): Unit =
      workOf(stageSpan.getOrDefault(e.stageInfo.stageId, Unattributed)).stages.incrementAndGet()
    override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
      val w = workOf(stageSpan.getOrDefault(e.stageId, Unattributed))
      w.tasks.incrementAndGet()
      Option(e.taskMetrics).foreach { m =>
        w.shuffleRead.addAndGet(m.shuffleReadMetrics.totalBytesRead)
        w.shuffleWrite.addAndGet(m.shuffleWriteMetrics.bytesWritten)
      }
    }
  }

  private var attached = false

  /** Attach or detach the Spark listener (untraced samples in a traced
    * run detach it, so the overhead measurement compares like with like).
    */
  def listen(on: Boolean): Unit = if (enabled && on != attached) {
    if (on) sc.addSparkListener(listener) else sc.removeSparkListener(listener)
    attached = on
  }

  listen(enabled)

  /** Run `body` inside a span named `name` for query `query` (-1: none). */
  def span[A](name: String, query: Int = -1)(body: => A): A =
    if (!enabled) body
    else {
      val s = Span(spans.size, name, stack.headOption.map(_.id).getOrElse(-1), query, System.nanoTime())
      spans += s
      stack = s :: stack
      val prev = sc.getLocalProperty(SpanProperty)
      sc.setLocalProperty(SpanProperty, s.id.toString)
      try body
      finally {
        s.end = System.nanoTime()
        sc.setLocalProperty(SpanProperty, prev)
        stack = stack.tail
      }
    }

  /** Wait until the listener has seen every event submitted so far. */
  def drain(): Unit = if (enabled) ListenerBusDrain(sc)

  /** Finished spans in start order, each with its own Spark work and its
    * self time (duration minus the time its child spans cover).
    */
  def finished(): Seq[SpanRecord] = {
    val childNanos = new Array[Long](spans.size)
    spans.foreach(s => if (s.parent >= 0) childNanos(s.parent) += s.end - s.start)
    spans.toSeq.map { s =>
      val w = Option(work.get(s.id)).getOrElse(new Work)
      SpanRecord(s.id, s.name, s.parent, s.query, s.start, s.end,
        selfNanos = s.end - s.start - childNanos(s.id),
        jobs = w.jobs.get, stages = w.stages.get, tasks = w.tasks.get,
        shuffleReadBytes = w.shuffleRead.get, shuffleWriteBytes = w.shuffleWrite.get)
    }
  }
}

object Tracer {
  val SpanProperty = "perfbench.span"
  private val Unattributed = -1

  private final case class Span(id: Int, name: String, parent: Int, query: Int, start: Long) {
    var end: Long = start
  }

  private final class Work {
    val jobs, stages, tasks, shuffleRead, shuffleWrite = new AtomicLong
  }

  final case class SpanRecord(
      id: Int, name: String, parent: Int, query: Int, start: Long, end: Long,
      selfNanos: Long, jobs: Long, stages: Long, tasks: Long,
      shuffleReadBytes: Long, shuffleWriteBytes: Long) {
    def nanos: Long = end - start
    def toJson: String =
      s"""{"id":$id,"name":"$name","parent":$parent,"query":$query,"start_ns":$start,"end_ns":$end,""" +
      s""""self_ns":$selfNanos,"jobs":$jobs,"stages":$stages,"tasks":$tasks,""" +
      s""""shuffle_read_bytes":$shuffleReadBytes,"shuffle_write_bytes":$shuffleWriteBytes}"""
  }
}
