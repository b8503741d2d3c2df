package repro.perfbench

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Path, Paths, StandardOpenOption}

import scala.collection.immutable.ListMap
import scala.jdk.CollectionConverters._
import scala.util.control.NonFatal

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions.{col, row_number, sum}

import repro.core.Pipeline

/** The repo benchmark. One JVM runs one workload:
  *
  *   Main --workload <name> --seed <n> --seconds <s> --trace <0|1> [--state <dir>]
  *
  * It pins the environment, runs the workload, checks every operation's
  * outputs and prints one JSON object as its last line: the end-to-end
  * metrics untraced, the per-layer metrics traced. The pipeline runs
  * once, cold, whatever `--seconds` says. `--state` is a directory that
  * keeps the digest of each operation's outputs, so that later runs of the
  * same workload and seed must reproduce it.
  */
object Main {

  final case class Args(workload: FullPipeline, seed: Long, seconds: Double, trace: Boolean,
                        state: Option[Path])

  /** Shuffle partitions of the measured runs, as in the ROADMAP baseline. */
  val ShufflePartitions = 16
  /** Traced spans must cover at least this share of the traced run. */
  val MinCoverage = 0.95

  def parse(argv: Array[String]): Either[String, Args] = {
    val kv = argv.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = kv.get(k).toRight(s"missing --$k")
    for {
      name <- need("workload")
      w <- Workload.all.find(_.name == name).toRight(
        s"unknown workload $name (${Workload.all.map(_.name).mkString(", ")})")
      seed <- need("seed").flatMap(s => s.toLongOption.toRight(s"bad --seed $s"))
      secs <- need("seconds").flatMap(s => s.toDoubleOption.filter(_ > 0).toRight(s"bad --seconds $s"))
      trace <- need("trace").flatMap {
        case "0" => Right(false); case "1" => Right(true); case t => Left(s"bad --trace $t")
      }
    } yield Args(w, seed, secs, trace, kv.get("state").map(Paths.get(_)))
  }

  /** The pinned environment: every core, fixed shuffle partitions, no UI,
    * no broadcast joins (as in the test and bench suites), WARN logging.
    */
  def session(): SparkSession = {
    val spark = SparkSession.builder()
      .master(s"local[${Runtime.getRuntime.availableProcessors}]")
      .appName("perfbench")
      .config("spark.sql.shuffle.partitions", ShufflePartitions.toLong)
      .config("spark.sql.autoBroadcastJoinThreshold", -1L)
      .config("spark.ui.enabled", value = false)
      .config("spark.driver.host", "127.0.0.1")
      .getOrCreate()
    spark.sparkContext.setLogLevel("WARN")
    spark
  }

  /** Set-up's last step: one small query through Spark's own machinery
    * (codegen, shuffle, sort-merge join, aggregate, window, checkpoint), so
    * that the measured operation does not also pay Spark's one-time
    * initialisation. It runs no code of the program.
    */
  def warmSpark(spark: SparkSession): Unit = {
    val df = spark.range(0, 20000).select(col("id") % 97 as "k", col("id") as "v")
    df.join(df.groupBy("k").agg(sum("v") as "s"), "k")
      .withColumn("r", row_number().over(Window.partitionBy("k").orderBy("v")))
      .localCheckpoint(true).count()
  }

  def main(argv: Array[String]): Unit = parse(argv) match {
    case Left(err) =>
      Console.err.println(s"perfbench: $err")
      sys.exit(2)
    case Right(args) =>
      val spark = session()
      val (env, result) =
        try {
          warmSpark(spark)
          (environment(args) ++ sparkEnvironment(spark),
           runPipeline(spark, args, args.workload, setupS = Jvm.uptimeSeconds))
        } finally spark.stop()
      result.failures.foreach(f => Console.err.println(s"perfbench: FAILED $f"))
      println(Json.obj(ListMap("env" -> env, "info" -> result.info)))
      println(resultLine(result))
  }

  /** Outcome of a run: metrics by name (value, unit), operations attempted,
    * one message per failed operation, and what the info line records.
    */
  final case class Result(metrics: Seq[(String, (Double, String))], attempted: Int,
                          failures: Seq[String], info: Map[String, Any])

  /** The last line of a run: correct, attempted, failed and metrics. */
  def resultLine(result: Result): String = Json.obj(ListMap(
    "correct" -> result.failures.isEmpty,
    "attempted" -> result.attempted,
    "failed" -> result.failures.size,
    "metrics" -> ListMap(result.metrics.map { case (k, (v, unit)) =>
      k -> ListMap("value" -> v, "unit" -> unit)
    }: _*)))

  /** Fill the per-layer list: layers the run did not reach read 0. */
  private def perLayer(measured: Map[String, Double]): Seq[(String, (Double, String))] =
    PerLayer.names.map { case (n, u) => n -> (measured.getOrElse(n, 0.0), u) }

  private def coverageFailure(coverage: Double): Seq[String] =
    if (coverage >= MinCoverage) Nil
    else Seq(f"spans cover ${coverage * 100}%.1f%% of the traced operation")

  /** One full pipeline run, cold, and its checks. */
  def runPipeline(spark: SparkSession, args: Args, w: FullPipeline, setupS: Double): Result = {
    val cfg = Pipeline.Config(sf = w.sf, seed = args.seed)
    val tracer = if (args.trace) Some(new Tracer(Some(spark))) else None
    val layers = new Layers(spark, tracer)
    val state = new State(args.state)
    try {
      val before = Jvm.counters()
      val t0 = System.nanoTime()
      val (data, run) = w.op(layers, cfg, args.trace)
      val opS = (System.nanoTime() - t0) / 1e9
      val used = Jvm.counters().zip(before).map { case ((k, a), (_, b)) => k -> (a - b) }
      val spanned = tracer.map(_.spannedSeconds)

      val out = run.outputs(layers.stations(run.candidate.result))
      val digest = Checks.digest(out)
      val broken = Checks.all(out) ++ state.checkDigest(s"${w.name}-${args.seed}", digest, 0)
      val failures = broken.headOption.map(b =>
        s"pipeline: $b" + (if (broken.size > 1) s" (+${broken.size - 1} more)" else "")).toSeq
      val info = ListMap("op_s" -> opS) ++ used ++ ListMap("digest" -> digest, "broken" -> broken)
      tracer match {
        case None =>
          state.record(w.name, opS)
          Result(Seq("setup_s" -> (setupS, "s"), "op_s" -> (opS, "s")), 1, failures, info)
        case Some(t) =>
          // after the operation's total: CandidateGraph.build's parts on their own
          data.foreach(layers.probes(_, run.report))
          val coverage = spanned.get / opS
          val measured = t.metrics() ++ Workload.funnel(out) ++ Seq(
            "jvm.gc_s" -> Jvm.gcSeconds, "jvm.rss_peak_mb" -> Jvm.rssPeakMb,
            "trace.coverage" -> coverage)
          val untraced = state.recorded(w.name)
          Result(perLayer(measured), 1, failures ++ coverageFailure(coverage),
                 info ++ untraced.map(u => "traced_minus_untraced_s" -> (opS - u)))
      }
    } catch {
      case NonFatal(e) =>
        e.printStackTrace()
        Result(Nil, 1, Seq(s"pipeline threw $e"), Map.empty)
    }
  }

  def environment(args: Args): Map[String, Any] = ListMap(
    "workload" -> args.workload.name, "seed" -> args.seed, "seconds" -> args.seconds,
    "trace" -> args.trace, "nproc" -> Runtime.getRuntime.availableProcessors,
    "java" -> System.getProperty("java.version"),
    "heap_max_mb" -> Runtime.getRuntime.maxMemory / (1 << 20))

  def sparkEnvironment(spark: SparkSession): Map[String, Any] = ListMap(
    "spark" -> spark.version, "master" -> spark.sparkContext.master,
    "shuffle_partitions" -> spark.conf.get("spark.sql.shuffle.partitions"),
    "broadcast_threshold" -> spark.conf.get("spark.sql.autoBroadcastJoinThreshold"))
}

/** What runs in one checkout leave for later runs: the digest of each
  * workload and seed's tables, and the untraced pipeline times. Without
  * a directory nothing is kept.
  */
final class State(dir: Option[Path]) {
  private def read(f: Path): Seq[String] =
    if (Files.exists(f)) Files.readAllLines(f, StandardCharsets.UTF_8).asScala.toSeq else Nil
  private def append(f: Path, line: String): Unit = {
    Files.createDirectories(f.getParent)
    Files.write(f, (line + "\n").getBytes(StandardCharsets.UTF_8),
                StandardOpenOption.CREATE, StandardOpenOption.APPEND)
  }

  /** Broken-rule message if `digest` differs from the one first recorded
    * as output `index` of `key`. Outputs are recorded in index order.
    */
  def checkDigest(key: String, digest: String, index: Int): Seq[String] = dir.toSeq.flatMap { d =>
    val f = d.resolve(s"$key.sha256")
    val recorded = read(f)
    if (index == recorded.size) append(f, digest)
    Checks.digestMatches(recorded.lift(index), digest)
  }

  def record(workload: String, pipelineS: Double): Unit =
    dir.foreach(d => append(d.resolve(s"$workload.pipeline_s"), pipelineS.toString))

  /** Median of the untraced pipeline times recorded for `workload`. */
  def recorded(workload: String): Option[Double] = dir.flatMap { d =>
    val xs = read(d.resolve(s"$workload.pipeline_s")).flatMap(_.toDoubleOption).sorted
    xs.lift(xs.size / 2)
  }
}

/** Minimal JSON writer for the result lines. */
object Json {
  def value(v: Any): String = v match {
    case null => "null"
    case s: String => "\"" + s.flatMap {
      case '"' => "\\\""; case '\\' => "\\\\"; case c if c < ' ' => f"\\u${c.toInt}%04x"
      case c => c.toString
    } + "\""
    case b: Boolean => b.toString
    case d: Double => if (d.isNaN || d.isInfinite) "null" else d.toString
    case f: Float => value(f.toDouble)
    case n: Number => n.toString
    case m: Map[_, _] => obj(m.map { case (k, x) => k.toString -> x })
    case s: Iterable[_] => s.map(value).mkString("[", ", ", "]")
    case o => value(o.toString)
  }
  def obj(m: Iterable[(String, Any)]): String =
    m.map { case (k, v) => value(k) + ": " + value(v) }.mkString("{", ", ", "}")
}
