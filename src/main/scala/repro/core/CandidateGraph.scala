package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.cluster.{HAC, SpatialGrid}
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
  * Everything up to the node assignment is plain Scala over one collect of
  * the cleaned stations and locations (~14 k rows at sf=1); the only Spark
  * work is the join of the rentals to that assignment, collected once into
  * the [[TripGraph]] that every later step reads.
  */
object CandidateGraph {

  /** Candidate node ids are cluster ids offset into a disjoint range. */
  val CandidateOffset = 1000000L

  final case class Stats(nNodes: Long, nStationNodes: Long, nCandidateNodes: Long,
                         undirectedEdges: Long, undirectedEdgesNoLoops: Long,
                         directedEdges: Long, directedEdgesNoLoops: Long, nTrips: Long)

  /** @param graph      nodes and trips after HAC
    * @param assignment location_id, node_id
    */
  final case class Result(graph: TripGraph, assignment: DataFrame) {
    /** Views of the graph for the specs, the DuckDB oracle and perfbench. */
    lazy val nodes: DataFrame = graph.nodesDF
    lazy val trips: DataFrame = graph.tripsDF

    def stats: Stats = {
      val pairs = graph.trips.map(t => (t.src, t.dst))
      val directed = pairs.toSet
      val undirected = directed.map { case (s, d) => (s min d, s max d) }
      def noLoops(edges: Set[(Long, Long)]): Long = edges.count { case (s, d) => s != d }.toLong
      val nStation = graph.nodes.count(_.isStation).toLong
      Stats(
        nNodes = graph.nodes.length, nStationNodes = nStation,
        nCandidateNodes = graph.nodes.length - nStation,
        undirectedEdges = undirected.size, undirectedEdgesNoLoops = noLoops(undirected),
        directedEdges = directed.size, directedEdgesNoLoops = noLoops(directed),
        nTrips = pairs.length)
    }
  }

  /** (distance in metres, station id) of each location's nearest fixed
    * station; ties go to the smaller id. Without stations the distance is
    * infinite.
    */
  private def nearest(locations: Array[(Long, Double, Double)],
                      stations: Array[(Long, Double, Double)]): Array[(Double, Long)] =
    locations.map { case (_, la, lo) =>
      stations.iterator.map(s => (Haversine.metres(la, lo, s._2, s._3), s._1))
        .minOption.getOrElse((Double.PositiveInfinity, -1L))
    }

  /** location_id, nearest_station, station_dist_m of every location, for
    * perfbench's probes and the specs.
    */
  def nearestStation(locations: DataFrame, stations: DataFrame): DataFrame = {
    import locations.sparkSession.implicits._
    val locs = SpatialGrid.collect(locations, "location_id")
    val near = nearest(locs, SpatialGrid.collect(stations, "station_id"))
    locs.zip(near).toSeq.collect { case ((id, _, _), (d, st)) if st >= 0 => (id, st, d) }
      .toDF("location_id", "nearest_station", "station_dist_m")
  }

  /** Build the candidate graph from cleaned data. */
  def build(spark: SparkSession, data: CleanData,
            preAssignM: Double = 50.0, hacCutM: Double = 100.0,
            centroidSepM: Double = 50.0): Result = {
    import spark.implicits._

    val stations = SpatialGrid.collect(data.stations, "station_id")
    val locations = SpatialGrid.collect(data.locations, "location_id")
    val (preAssigned, toCluster) = locations.zip(nearest(locations, stations))
      .partition { case (_, (d, _)) => d <= preAssignM }
    val (clustered, centroids) =
      HAC.clusterPoints(toCluster.map(_._1), cutM = hacCutM, minCentroidSepM = centroidSepM)

    val assignment = (preAssigned.toSeq.map { case ((id, _, _), (_, st)) => (id, st) } ++
      clustered.toSeq.map { case (id, cid) => (id, cid + CandidateOffset) })
      .toDF("location_id", "node_id")
    val nodes = (stations.map { case (id, la, lo) => TripGraph.Node(id, la, lo, isStation = true) } ++
      centroids.map(c => TripGraph.Node(c.cluster_id + CandidateOffset, c.c_lat, c.c_lon,
                                        isStation = false))).sortBy(_.id)

    val srcMap = assignment.select($"location_id" as "rental_location_id", $"node_id" as "src_node")
    val dstMap = assignment.select($"location_id" as "return_location_id", $"node_id" as "dst_node")
    val trips = TripGraph.collectTrips(data.rentals
      .join(srcMap, "rental_location_id")
      .join(dstMap, "return_location_id"))

    Result(TripGraph(nodes, trips), assignment)
  }
}
