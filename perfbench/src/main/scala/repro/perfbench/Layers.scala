package repro.perfbench

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions.col

import repro.cluster.{HAC, SpatialGrid}
import repro.community.Louvain
import repro.core._
import repro.data.{Cleaning, MobySynth}
import repro.data.MobySchema.MobyData

/** The benchmark's calls into the program. With a tracer, each call
  * into a layer's public function runs inside a span of that layer.
  */
final class Layers(spark: SparkSession, tracer: Option[Tracer]) {
  import spark.implicits._
  import Layers._

  private def span[T](name: String, onSpark: Boolean = true)(body: => T): T =
    tracer.fold(body)(_.span(name, onSpark)(body))

  private def count(name: String, v: Double): Unit = tracer.foreach(_.count(name, v))

  /** Generate and clean the inputs, then Table I. */
  def data(cfg: Pipeline.Config): (Data, Cleaning.Report) = {
    val raw = span("data.generate")(MobySynth.generate(spark, cfg.sf, cfg.seed))
    val clean = span("data.clean")(Cleaning.clean(raw))
    val report = span("data.report")(Cleaning.report(raw, clean))
    count("data.generate.rows_out", report.origRentals.toDouble)
    count("data.clean.rows_out", report.cleanRentals.toDouble)
    (Data(cfg, raw, clean), report)
  }

  /** One full pipeline run from the generator to the Table VI summary,
    * through `Pipeline.run` and `Pipeline.communities` as a user calls them.
    */
  def pipeline(cfg: Pipeline.Config): Run = {
    val res = Pipeline.run(spark, cfg)
    val cStats = res.candidate.stats
    val sStats = res.selected.stats
    Run(cfg, res.report, Candidate(res.candidate, cStats),
        Selected(res.selection, sStats, communities(res.selected)))
  }

  /** The same run as [[pipeline]], one layer call at a time. */
  def pipelineInSteps(cfg: Pipeline.Config): (Data, Run) = {
    val (d, report) = data(cfg)
    val candidate = span("core.candidate_graph")(CandidateGraph.build(spark, d.clean,
      preAssignM = cfg.preAssignM, hacCutM = cfg.hacCutM, centroidSepM = cfg.centroidSepM))
    val stats = span("core.candidate_stats")(candidate.stats)
    count("core.candidate_graph.rows_out", stats.nNodes.toDouble)
    (d, Run(cfg, report, Candidate(candidate, stats), select(candidate, cfg.minDistM)))
  }

  /** Algorithm 1 at `minDistM` over a built candidate graph, then Tables III–VI. */
  def select(candidate: CandidateGraph.Result, minDistM: Double): Selected = {
    val sel = span("core.select")(StationSelection.select(spark, candidate, minDistM = minDistM))
    val selected = span("core.selected_graph")(SelectedGraph.build(spark, candidate, sel))
    val stats = span("core.selected_stats")(selected.stats)
    count("core.selected_graph.rows_out", stats.totalStations.toDouble)
    Selected(sel, stats, communities(selected))
  }

  private def communities(selected: SelectedGraph.Result): Seq[CommunityAnalysis.Summary] =
    tracer match {
      case None =>
        Granularities.map { case (g, _) => Pipeline.communities(spark, selected, g).summary }
      case Some(_) =>
        // the steps of Pipeline.communities, one span each
        Granularities.map { case (g, name) =>
          val triples = span(s"core.temporal_edges.$name") {
            TemporalGraphs.edges(spark, selected.trips, g)
              .select($"src".cast("long"), $"dst".cast("long"), $"weight".cast("double"))
              .as[(Long, Long, Double)].collect().toSeq
          }
          val louvain = span(s"community.louvain.$name", onSpark = false)(Louvain.run(triples))
          val summary = span(s"core.summarize.$name") {
            val allNodes = selected.nodes.select($"node_id").as[Long].collect()
            val full = allNodes.map(n => n -> louvain.community.getOrElse(n, n)).toMap
            CommunityAnalysis.summarize(spark, selected, full, louvain.modularity)
          }
          count(s"core.temporal_edges.$name.rows_out", triples.size.toDouble)
          count(s"community.louvain.$name.levels", louvain.levels.toDouble)
          count(s"core.summarize.$name.rows_out", summary.rows.size.toDouble)
          summary
        }
    }

  /** Outside any pipeline total: the parts of `CandidateGraph.build` on
    * their own, to split its time between nearest-station assignment,
    * neighbour pairs and HAC.
    */
  def probes(d: Data, report: Cleaning.Report): Unit = {
    val cfg = d.cfg
    val near = span("core.nearest_station") {
      CandidateGraph.nearestStation(d.clean.locations, d.clean.stations).localCheckpoint(true)
    }
    val points = d.clean.locations
      .join(near.filter(col("station_dist_m") > cfg.preAssignM).select("location_id"), "location_id")
      .select(col("location_id") as "id", col("lat"), col("lon"))
      .localCheckpoint(true)
    val pairs = span("cluster.neighbour_pairs") {
      SpatialGrid.neighbourPairs(spark, points, cfg.hacCutM)
        .select($"id_a", $"id_b").as[(Long, Long)].collect()
    }
    val clusters = span("cluster.hac") {
      HAC.cluster(spark, points, cutM = cfg.hacCutM, minCentroidSepM = cfg.centroidSepM)
        .centroids.count()
    }
    count("core.nearest_station.rows_out", report.cleanLocations.toDouble)
    count("cluster.pairs", pairs.length.toDouble)
    count("cluster.max_component", maxComponent(pairs).toDouble)
    count("cluster.clusters", clusters.toDouble)
  }

  /** (lat, lon) of every fixed station node of a candidate graph. */
  def stations(candidate: CandidateGraph.Result): Seq[(Double, Double)] =
    candidate.nodes.filter($"is_station").select($"lat", $"lon").as[(Double, Double)]
      .collect().toSeq
}

object Layers {
  val Granularities: Seq[(TemporalGraphs.Granularity, String)] =
    Seq(TemporalGraphs.TNull -> "basic", TemporalGraphs.TDay -> "day",
        TemporalGraphs.THour -> "hour")

  /** Generated and cleaned inputs. */
  final case class Data(cfg: Pipeline.Config, raw: MobyData, clean: Cleaning.CleanData)

  /** The candidate graph and Table II. */
  final case class Candidate(result: CandidateGraph.Result, stats: CandidateGraph.Stats)

  /** Algorithm 1 and everything after it: Tables III–VI. */
  final case class Selected(selection: StationSelection.Result, stats: SelectedGraph.Stats,
                            communities: Seq[CommunityAnalysis.Summary])

  /** What one pipeline run produced, before its checks: Tables I–VI. */
  final case class Run(cfg: Pipeline.Config, report: Cleaning.Report,
                       candidate: Candidate, selected: Selected) {
    def outputs(stations: Seq[(Double, Double)]): Checks.Outputs =
      Checks.Outputs(cfg.sf, cfg.minDistM, report, candidate.stats, selected.selection, stations,
                     selected.stats, selected.communities)
  }

  /** Size of the largest connected component of a pair list. */
  def maxComponent(pairs: Array[(Long, Long)]): Int = {
    val parent = scala.collection.mutable.HashMap.empty[Long, Long]
    def root(x: Long): Long = {
      var r = x
      while (parent.getOrElse(r, r) != r) r = parent(r)
      parent(x) = r
      r
    }
    pairs.foreach { case (a, b) =>
      val (ra, rb) = (root(a), root(b))
      if (ra != rb) parent(math.max(ra, rb)) = math.min(ra, rb)
    }
    if (parent.isEmpty) 1
    else parent.keys.toSeq.groupBy(root).valuesIterator.map(_.size).max
  }
}
