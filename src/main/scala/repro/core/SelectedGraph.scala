package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.col
import repro.geo.Haversine

/** The selected graph (paper §V-B, Table III): pre-existing stations plus
  * the candidates chosen by Algorithm 1. Trips at rejected candidates are
  * redirected to the nearest station of the final set, so the total trip
  * count is invariant.
  */
object SelectedGraph {

  final case class GroupStats(stations: Long, tripsFrom: Long, tripsTo: Long,
                              edgesFrom: Long, edgesTo: Long)

  final case class Stats(preExisting: GroupStats, selected: GroupStats,
                         totalStations: Long, totalTrips: Long, totalEdges: Long)

  /** @param graph the final stations and the redirected trips; a node is
    *              new iff it is not a fixed station
    */
  final case class Result(graph: TripGraph) {
    /** Views for the specs, the oracle and perfbench, nodes with is_new. The
      * eager checkpoint makes collecting the nodes a Spark job, which
      * perfbench's SmokeSpec asserts in the `core.summarize.hour` span.
      */
    val nodes: DataFrame =
      graph.nodesDF.withColumn("is_new", !col("is_station")).localCheckpoint(true)
    lazy val trips: DataFrame = graph.tripsDF

    def stats: Stats = {
      val pairs = graph.trips.map(t => (t.src, t.dst))
      val edges = pairs.distinct
      def grp(isNew: Boolean): GroupStats = {
        val inGroup = graph.nodes.collect { case n if n.isStation != isNew => n.id }.toSet
        GroupStats(
          stations = inGroup.size,
          tripsFrom = pairs.count(p => inGroup(p._1)), tripsTo = pairs.count(p => inGroup(p._2)),
          edgesFrom = edges.count(e => inGroup(e._1)), edgesTo = edges.count(e => inGroup(e._2)))
      }
      Stats(grp(isNew = false), grp(isNew = true),
            totalStations = graph.nodes.length, totalTrips = pairs.length, totalEdges = edges.length)
    }
  }

  /** Redirect trips at rejected candidates to the nearest final station. */
  def build(spark: SparkSession, candidate: CandidateGraph.Result,
            selection: StationSelection.Result): Result = {
    val selectedIds = selection.selected.map(_.nodeId).toSet
    val finals = candidate.graph.nodes.filter(n => n.isStation || selectedIds(n.id))

    // nearest final station for every rejected candidate node (~1k
    // rejected × ~240 stations)
    val remap: Map[Long, Long] = selection.candidates.filterNot(_.selected).map { r =>
      r.nodeId -> finals.minBy(f => (Haversine.metres(r.lat, r.lon, f.lat, f.lon), f.id)).id
    }.toMap
    def to(node: Long): Long = remap.getOrElse(node, node)

    Result(TripGraph(finals,
      candidate.graph.trips.map(t => t.copy(src = to(t.src), dst = to(t.dst)))))
  }
}
