package repro.perfbench

import java.lang.management.ManagementFactory
import java.nio.file.{Files, Paths}

import scala.collection.mutable
import scala.jdk.CollectionConverters._

import org.apache.spark.ListenerBusDrain
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerStageSubmitted, SparkListenerTaskEnd}
import org.apache.spark.sql.SparkSession

/** Spans around the benchmark's calls into the program's layers.
  *
  * With a Spark session, each span runs its body under a Spark job group
  * of its own. A listener charges every job, task CPU second and shuffle
  * byte to the group it was submitted under, so work lands in the right
  * span even though listener events arrive late. A span name seen more
  * than once accumulates.
  */
final class Tracer(spark: Option[SparkSession]) {
  private val sc = spark.map(_.sparkContext)

  private final class Work { var jobs = 0L; var cpuNs = 0L; var shuffleBytes = 0L }

  /** Time spent in the tracer itself: listener callbacks and span bookkeeping. */
  private var selfNs = 0L
  private def self[T](body: => T): T = {
    val t0 = System.nanoTime()
    try body finally selfNs += System.nanoTime() - t0
  }

  private final class GroupListener extends SparkListener {
    private val stageGroup = mutable.HashMap.empty[Int, String]
    val byGroup = mutable.HashMap.empty[String, Work]

    private def group(props: java.util.Properties): Option[String] =
      Option(props).flatMap(p => Option(p.getProperty("spark.jobGroup.id")))

    override def onJobStart(e: SparkListenerJobStart): Unit = synchronized(self {
      group(e.properties).foreach(g => byGroup.getOrElseUpdate(g, new Work).jobs += 1)
    })
    override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit = synchronized(self {
      group(e.properties).foreach(g => stageGroup(e.stageInfo.stageId) = g)
    })
    override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized(self {
      for (g <- stageGroup.get(e.stageId); m <- Option(e.taskMetrics)) {
        val w = byGroup.getOrElseUpdate(g, new Work)
        w.cpuNs += m.executorCpuTime
        w.shuffleBytes += m.shuffleWriteMetrics.bytesWritten
      }
    })
  }
  private val Listener = new GroupListener
  sc.foreach(_.addSparkListener(Listener))

  private val spans = mutable.ArrayBuffer.empty[(String, String, Double)] // name, group, wall s
  private val counts = mutable.LinkedHashMap.empty[String, Double]
  private val sparkSpans = mutable.LinkedHashSet.empty[String]

  /** Time `body` as span `name`; `spark = false` for driver-only layers. */
  def span[T](name: String, spark: Boolean = true)(body: => T): T = {
    val group = s"perfbench-${spans.size}"
    Listener.synchronized(self(sc.foreach(_.setJobGroup(group, name, interruptOnCancel = false))))
    val t0 = System.nanoTime()
    try body
    finally {
      val wall = (System.nanoTime() - t0) / 1e9
      Listener.synchronized(self {
        spans += ((name, group, wall))
        if (spark) sparkSpans += name
        sc.foreach(_.clearJobGroup())
      })
    }
  }

  /** Add `v` to the count `name` (a rows_out or a layer's own count). */
  def count(name: String, v: Double): Unit = counts(name) = counts.getOrElse(name, 0.0) + v

  /** Wall seconds of all spans so far. */
  def spannedSeconds: Double = spans.map(_._3).sum

  /** Per-span wall_s, spark_jobs, task_cpu_s and shuffle_mb, the counts,
    * and trace.overhead_s: the tracer's own time, listener included.
    */
  def metrics(): Map[String, Double] = {
    sc.foreach(ListenerBusDrain(_))
    val out = mutable.LinkedHashMap.empty[String, Double]
    def add(k: String, v: Double): Unit = out(k) = out.getOrElse(k, 0.0) + v
    val selfS = Listener.synchronized {
      for ((name, group, wall) <- spans) {
        add(s"$name.wall_s", wall)
        if (sparkSpans(name)) {
          val w = Listener.byGroup.getOrElse(group, new Work)
          add(s"$name.spark_jobs", w.jobs.toDouble)
          add(s"$name.task_cpu_s", w.cpuNs / 1e9)
          add(s"$name.shuffle_mb", w.shuffleBytes / 1e6)
        }
      }
      selfNs / 1e9
    }
    (out ++ counts).toMap + ("trace.overhead_s" -> selfS)
  }
}

object Jvm {
  /** Total collection time of every garbage collector, seconds. */
  def gcSeconds: Double =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime.max(0L)).sum / 1e3

  /** Resident-set high-water mark of this process, MB (0 where /proc is absent). */
  def rssPeakMb: Double = {
    val status = Paths.get("/proc/self/status")
    if (!Files.exists(status)) 0.0
    else Files.readAllLines(status).asScala.find(_.startsWith("VmHWM:"))
      .map(_.split("\\s+")(1).toDouble / 1024).getOrElse(0.0)
  }

  /** Process CPU, JIT, GC and host-steal seconds so far, for the info line. */
  def counters(): Seq[(String, Double)] = {
    val os = ManagementFactory.getOperatingSystemMXBean.asInstanceOf[com.sun.management.OperatingSystemMXBean]
    val steal = {
      val stat = Paths.get("/proc/stat")
      if (!Files.exists(stat)) 0.0
      else Files.readAllLines(stat).get(0).trim.split("\\s+").lift(8).map(_.toDouble / 100).getOrElse(0.0)
    }
    Seq("cpu_s" -> os.getProcessCpuTime / 1e9,
        "jit_s" -> ManagementFactory.getCompilationMXBean.getTotalCompilationTime / 1e3,
        "gc_s" -> gcSeconds, "host_steal_s" -> steal)
  }

  /** Seconds since this JVM started. */
  def uptimeSeconds: Double = ManagementFactory.getRuntimeMXBean.getUptime / 1e3
}
