package repro.core

import org.apache.spark.sql.SparkSession
import repro.community.{Louvain, Modularity}
import repro.data.{Cleaning, MobySynth}
import repro.data.MobySchema.MobyData

/** End-to-end orchestration of the paper's three-step methodology:
  * generate → clean → candidate graph (HAC) → Algorithm 1 selection →
  * selected graph → Louvain at three temporal granularities.
  */
object Pipeline {

  /** All thresholds default to the paper's §IV values (metres). */
  final case class Config(sf: Double = 1.0, seed: Long = 7L,
                          preAssignM: Double = 50.0, hacCutM: Double = 100.0,
                          centroidSepM: Double = 50.0, minDistM: Double = 250.0)

  final case class CommunityResult(granularity: TemporalGraphs.Granularity,
                                   summary: CommunityAnalysis.Summary)

  final case class Result(raw: MobyData, clean: Cleaning.CleanData, report: Cleaning.Report,
                          candidate: CandidateGraph.Result,
                          selection: StationSelection.Result,
                          selected: SelectedGraph.Result)

  /** Run generation through station selection (Tables I–III). */
  def run(spark: SparkSession, cfg: Config = Config()): Result = {
    val raw = MobySynth.generate(spark, cfg.sf, cfg.seed)
    val clean = Cleaning.clean(raw)
    val report = Cleaning.report(raw, clean)
    val candidate = CandidateGraph.build(spark, clean,
      preAssignM = cfg.preAssignM, hacCutM = cfg.hacCutM, centroidSepM = cfg.centroidSepM)
    val selection = StationSelection.select(spark, candidate, minDistM = cfg.minDistM)
    val selected = SelectedGraph.build(spark, candidate, selection)
    Result(raw, clean, report, candidate, selection, selected)
  }

  /** Louvain + community summary on the selected graph at a granularity
    * (Tables IV–VI), using the exact sequential Louvain; its modularity is
    * the shared [[Modularity]] definition.
    */
  def communities(spark: SparkSession, selected: SelectedGraph.Result,
                  g: TemporalGraphs.Granularity): CommunityResult = {
    import spark.implicits._
    val triples = TemporalGraphs.edges(spark, selected.trips, g)
      .select($"src".cast("long"), $"dst".cast("long"), $"weight".cast("double"))
      .as[(Long, Long, Double)].collect().toSeq
    val r = Louvain.run(triples)
    // a final station that no trip touches has no edge, so Louvain never
    // sees it; it becomes a singleton community
    val allNodes = selected.nodes.select($"node_id").as[Long].collect()
    val full = allNodes.map(n => n -> r.community.getOrElse(n, n)).toMap
    CommunityResult(g, CommunityAnalysis.summarize(spark, selected, full, r.modularity))
  }
}
