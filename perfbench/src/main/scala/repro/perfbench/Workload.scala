package repro.perfbench

import repro.core.Pipeline
import repro.geo.Haversine

/** A benchmark workload: the full pipeline, generator to Table VI, at
  * scale factor `sf`, run once in a cold JVM.
  */
final case class FullPipeline(name: String, sf: Double) {

  /** Run the pipeline; its inputs are returned where the layers built them. */
  def op(layers: Layers, cfg: Pipeline.Config, traced: Boolean): (Option[Layers.Data], Layers.Run) =
    if (traced) {
      val (d, r) = layers.pipelineInSteps(cfg)
      (Some(d), r)
    } else (None, layers.pipeline(cfg))
}

object Workload {
  val all: Seq[FullPipeline] = Seq(
    FullPipeline("paper_sf1", sf = 1.0),
    FullPipeline("small_sf0.05", sf = 0.05),
  )

  /** The Algorithm 1 funnel of one selection. */
  def funnel(o: Checks.Outputs): Seq[(String, Double)] = {
    val sel = o.selection
    val passDegree = sel.candidates.filter(_.degree >= sel.degreeThreshold)
    val passDistance = passDegree.filter { c =>
      o.stations.forall { case (la, lo) => Haversine.metres(c.lat, c.lon, la, lo) > o.minDistM }
    }
    Seq("select.threshold" -> sel.degreeThreshold.toDouble,
        "select.candidates" -> sel.candidates.size.toDouble,
        "select.pass_degree" -> passDegree.size.toDouble,
        "select.pass_distance" -> passDistance.size.toDouble,
        "select.selected" -> sel.selected.size.toDouble)
  }
}

/** Every per-layer metric of a traced run, with its unit. A metric the
  * run did not measure reads 0.
  */
object PerLayer {
  private val g = Layers.Granularities.map(_._2)

  /** Spans whose work runs as Spark jobs. */
  val sparkSpans: Seq[String] =
    Seq("data.generate", "data.clean", "data.report",
        "core.candidate_graph", "core.candidate_stats",
        "core.select", "core.selected_graph", "core.selected_stats") ++
      g.map("core.temporal_edges." + _) ++ g.map("core.summarize." + _) ++
      Seq("core.nearest_station", "cluster.neighbour_pairs", "cluster.hac")

  /** Spans that run on the driver only. */
  val driverSpans: Seq[String] = g.map("community.louvain." + _)

  val rowsOut: Seq[String] =
    (Seq("data.generate", "data.clean", "core.candidate_graph", "core.selected_graph") ++
      g.map("core.temporal_edges." + _) ++ g.map("core.summarize." + _) :+
      "core.nearest_station").map(_ + ".rows_out")

  val counts: Seq[String] =
    Seq("cluster.pairs", "cluster.max_component", "cluster.clusters",
        "select.threshold", "select.candidates", "select.pass_degree",
        "select.pass_distance", "select.selected") ++
      g.map(x => s"community.louvain.$x.levels")

  val names: Seq[(String, String)] =
    sparkSpans.flatMap(s => Seq(s"$s.wall_s" -> "s", s"$s.spark_jobs" -> "count",
                                s"$s.task_cpu_s" -> "s", s"$s.shuffle_mb" -> "MB")) ++
      driverSpans.map(s => s"$s.wall_s" -> "s") ++
      (rowsOut ++ counts).map(_ -> "count") ++
      Seq("jvm.gc_s" -> "s", "jvm.rss_peak_mb" -> "MB",
          "trace.overhead_s" -> "s", "trace.coverage" -> "ratio")
}
