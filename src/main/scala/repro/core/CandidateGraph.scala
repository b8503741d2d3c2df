package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import repro.cluster.HAC
import repro.data.Cleaning.CleanData
import repro.geo.Haversine

/** Candidate-graph construction (paper §IV-A, Table II).
  *
  * Fixed stations are immovable group centroids; every location within
  * `preAssignM` (50 m) of its nearest station joins that station's group
  * and is excluded from clustering. The remaining locations are clustered
  * with complete-linkage HAC at a `hacCutM` (100 m) diameter cut, with
  * cluster centroids forced >= `centroidSepM` (50 m) apart (Rule 2).
  * Each cluster becomes a *candidate station*; trips become directed
  * edges between the nodes their endpoints map to.
  */
object CandidateGraph {

  /** Candidate node ids are cluster ids offset into a disjoint range. */
  val CandidateOffset = 1000000L

  final case class Stats(nNodes: Long, nStationNodes: Long, nCandidateNodes: Long,
                         undirectedEdges: Long, undirectedEdgesNoLoops: Long,
                         directedEdges: Long, directedEdgesNoLoops: Long, nTrips: Long)

  /** @param nodes      node_id, lat, lon, is_station
    * @param assignment location_id, node_id, dist_to_station_m
    * @param trips      rental_id, src_node, dst_node, start_ts
    */
  final case class Result(nodes: DataFrame, assignment: DataFrame, trips: DataFrame) {
    def stats: Stats = {
      val pairs = endpoints(trips)
      val directed = pairs.toSet
      val undirected = directed.map { case (s, d) => (s min d, s max d) }
      def noLoops(edges: Set[(Long, Long)]): Long = edges.count { case (s, d) => s != d }.toLong
      val isStation = nodes.select(col("is_station")).collect().map(_.getBoolean(0))
      val nStation = isStation.count(identity).toLong
      Stats(
        nNodes = isStation.length, nStationNodes = nStation,
        nCandidateNodes = isStation.length - nStation,
        undirectedEdges = undirected.size, undirectedEdgesNoLoops = noLoops(undirected),
        directedEdges = directed.size, directedEdgesNoLoops = noLoops(directed),
        nTrips = pairs.length)
    }
  }

  /** Every trip's (src_node, dst_node), collected to the driver. The graph
    * after HAC is small (~62 k trips at sf=1), so the table counts are
    * plain Scala over this array rather than Spark jobs.
    */
  private[core] def endpoints(trips: DataFrame): Array[(Long, Long)] =
    trips.select(col("src_node").cast("long"), col("dst_node").cast("long")).collect()
      .map(r => (r.getLong(0), r.getLong(1)))

  /** Nearest fixed station for every location: location_id, nearest_station,
    * station_dist_m. Uses a cross join (|L|·|S| ≈ 1.3 M at sf=1).
    */
  def nearestStation(locations: DataFrame, stations: DataFrame): DataFrame = {
    val l = locations.select(col("location_id"), col("lat") as "l_lat", col("lon") as "l_lon")
    val s = stations.select(col("station_id"), col("lat") as "s_lat", col("lon") as "s_lon")
    val joined = l.crossJoin(s)
      .withColumn("station_dist_m",
        Haversine.metresCol(col("l_lat"), col("l_lon"), col("s_lat"), col("s_lon")))
    val w = Window.partitionBy(col("location_id"))
      .orderBy(col("station_dist_m").asc, col("station_id").asc)
    joined.withColumn("rn", row_number().over(w))
      .filter(col("rn") === 1)
      .select(col("location_id"), col("station_id") as "nearest_station", col("station_dist_m"))
  }

  /** Build the candidate graph from cleaned data. */
  def build(spark: SparkSession, data: CleanData,
            preAssignM: Double = 50.0, hacCutM: Double = 100.0,
            centroidSepM: Double = 50.0): Result = {
    import spark.implicits._

    val near = nearestStation(data.locations, data.stations).cache()

    val preAssigned = near.filter($"station_dist_m" <= preAssignM)
      .select($"location_id", $"nearest_station" as "node_id", $"station_dist_m")

    val toCluster = data.locations
      .join(near.filter($"station_dist_m" > preAssignM).select($"location_id", $"station_dist_m"),
            "location_id")
      .select($"location_id" as "id", $"lat", $"lon", $"station_dist_m")

    val hac = HAC.cluster(spark, toCluster.select($"id", $"lat", $"lon"),
                          cutM = hacCutM, minCentroidSepM = centroidSepM)

    val clustered = hac.assignment
      .join(toCluster.select($"id", $"station_dist_m"), "id")
      .select($"id" as "location_id",
              ($"cluster_id" + CandidateOffset) as "node_id",
              $"station_dist_m")

    // eager localCheckpoint (not cache): truncates the HAC/cross-join
    // lineage so downstream plans stay small (see MobySynth.generate)
    val assignment = preAssigned.unionByName(clustered).localCheckpoint(true)

    val stationNodes = data.stations.select(
      $"station_id" as "node_id", $"lat", $"lon", lit(true) as "is_station")
    val candidateNodes = hac.centroids.select(
      ($"cluster_id" + CandidateOffset) as "node_id",
      $"c_lat" as "lat", $"c_lon" as "lon", lit(false) as "is_station")
    val nodes = stationNodes.unionByName(candidateNodes).localCheckpoint(true)

    val srcMap = assignment.select($"location_id" as "rental_location_id", $"node_id" as "src_node")
    val dstMap = assignment.select($"location_id" as "return_location_id", $"node_id" as "dst_node")
    val trips = data.rentals
      .join(srcMap, "rental_location_id")
      .join(dstMap, "return_location_id")
      .select($"rental_id", $"src_node", $"dst_node", $"start_ts")
      .localCheckpoint(true)

    Result(nodes, assignment, trips)
  }
}
