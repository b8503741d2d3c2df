package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
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

  /** @param nodes node_id, lat, lon, is_station (pre-existing), is_new
    * @param trips rental_id, src_node, dst_node, start_ts (redirected)
    */
  final case class Result(nodes: DataFrame, trips: DataFrame) {
    def stats: Stats = {
      val pairs = CandidateGraph.endpoints(trips)
      val edges = pairs.distinct
      val isNew = nodeFlags(nodes)
      def grp(newFlag: Boolean): GroupStats = {
        val ids = isNew.collect { case (id, f) if f == newFlag => id }
        val inGroup = ids.toSet
        GroupStats(
          stations = ids.length,
          tripsFrom = pairs.count(p => inGroup(p._1)), tripsTo = pairs.count(p => inGroup(p._2)),
          edgesFrom = edges.count(e => inGroup(e._1)), edgesTo = edges.count(e => inGroup(e._2)))
      }
      Stats(grp(newFlag = false), grp(newFlag = true),
            totalStations = isNew.length, totalTrips = pairs.length, totalEdges = edges.length)
    }
  }

  /** Every node's (node_id, is_new), collected to the driver. */
  private[core] def nodeFlags(nodes: DataFrame): Array[(Long, Boolean)] =
    nodes.select(col("node_id").cast("long"), col("is_new")).collect()
      .map(r => (r.getLong(0), r.getBoolean(1)))

  /** Redirect trips at rejected candidates to the nearest final station. */
  def build(spark: SparkSession, candidate: CandidateGraph.Result,
            selection: StationSelection.Result): Result = {
    import spark.implicits._

    val selectedIds = selection.selected.map(_.nodeId).toSet
    val finalNodes = candidate.nodes
      .filter($"is_station" || $"node_id".isin(selectedIds.toSeq: _*))
      .withColumn("is_new", !$"is_station")
      .localCheckpoint(true)

    // nearest final station for every rejected candidate node (driver-side:
    // ~1k rejected × ~240 stations)
    val finals = finalNodes.select($"node_id", $"lat", $"lon")
      .as[(Long, Double, Double)].collect()
    val rejected = selection.candidates.filterNot(_.selected)
    val remap: Map[Long, Long] = rejected.map { r =>
      val nearest = finals.minBy { case (id, la, lo) =>
        (Haversine.metres(r.lat, r.lon, la, lo), id)
      }
      r.nodeId -> nearest._1
    }.toMap

    val remapDf = remap.toSeq.toDF("old_node", "new_node")
    val trips = candidate.trips
      .join(remapDf.select($"old_node" as "src_node", $"new_node" as "src_new"),
            Seq("src_node"), "left")
      .join(remapDf.select($"old_node" as "dst_node", $"new_node" as "dst_new"),
            Seq("dst_node"), "left")
      .select($"rental_id",
              coalesce($"src_new", $"src_node") as "src_node",
              coalesce($"dst_new", $"dst_node") as "dst_node",
              $"start_ts")
      .localCheckpoint(true)

    Result(finalNodes, trips)
  }
}
