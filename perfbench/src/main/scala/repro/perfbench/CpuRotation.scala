package repro.perfbench

import java.nio.file.{Files, Paths}

import scala.util.Try

/** Moves the calling thread from CPU to CPU between passes of the
  * sequential engine, with `taskset`.
  *
  * On a shared virtual machine the CPUs run at different speeds, up to
  * 1.5× apart, and a single thread stays on one of them for seconds. A
  * window spent on one CPU then reads that CPU's speed, so runs of the
  * same seed differed by 1.4× in every sequential query at once. Spread
  * over the CPUs, each query's median reads a typical one.
  *
  * Linux only; where `/proc/thread-self` or `taskset` is missing, the
  * thread stays where the scheduler puts it.
  */
final class CpuRotation {
  private val cpus = Runtime.getRuntime.availableProcessors
  private val tid = Try(Files.readSymbolicLink(Paths.get("/proc/thread-self")).getFileName.toString).toOption

  private def taskset(cpuList: String): Unit = tid.foreach { t =>
    Try(new ProcessBuilder("taskset", "-p", "-c", cpuList, t)
      .redirectErrorStream(true).redirectOutput(ProcessBuilder.Redirect.DISCARD)
      .start().waitFor())
  }

  /** Pins the calling thread to CPU `pass` mod the CPU count. */
  def pin(pass: Int): Unit = taskset((pass % cpus).toString)

  /** Lets the calling thread run on every CPU again. */
  def release(): Unit = taskset(s"0-${cpus - 1}")
}
