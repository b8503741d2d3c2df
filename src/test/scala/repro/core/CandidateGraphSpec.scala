package repro.core

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.data.{Cleaning, MobySynth}
import repro.geo.Haversine

/** Tests for candidate-graph construction (paper §IV-A, Table II). */
class CandidateGraphSpec extends SparkSpec {

  private val sf = repro.TestFixtures.sf
  private lazy val cleaned = repro.TestFixtures.cleaned
  private lazy val cand = repro.TestFixtures.candidate
  private lazy val stats = cand.stats

  test("every cleaned location is assigned to exactly one node") {
    import spark.implicits._
    assert(cand.assignment.count() === cleaned.locations.count())
    assert(cand.assignment.select($"location_id").distinct().count() === cleaned.locations.count())
  }

  test("locations within 50 m of a station are pre-assigned to it") {
    import spark.implicits._
    val near = CandidateGraph.nearestStation(cleaned.locations, cleaned.stations)
    val joined = cand.assignment.select($"location_id", $"node_id").join(near, "location_id")
    // every pre-assigned node (node_id < offset) must be the nearest
    // station and within 50 m
    val pre = joined.filter($"node_id" < CandidateGraph.CandidateOffset)
    assert(pre.filter($"node_id" =!= $"nearest_station").count() === 0L)
    assert(pre.filter($"station_dist_m" > 50.0).count() === 0L)
    // and every clustered location is > 50 m from all stations
    val clustered = joined.filter($"node_id" >= CandidateGraph.CandidateOffset)
    assert(clustered.filter($"station_dist_m" <= 50.0).count() === 0L)
  }

  test("nearestStation picks the true argmin (brute-force check)") {
    import spark.implicits._
    val near = CandidateGraph.nearestStation(cleaned.locations, cleaned.stations)
      .as[(Long, Long, Double)].collect().map(t => t._1 -> (t._2, t._3)).toMap
    val sts = cleaned.stations.select($"station_id", $"lat", $"lon")
      .as[(Long, Double, Double)].collect()
    val locs = cleaned.locations.select($"location_id", $"lat", $"lon")
      .as[(Long, Double, Double)].collect()
    locs.take(200).foreach { case (id, la, lo) =>
      val best = sts.map(s => (Haversine.metres(la, lo, s._2, s._3), s._1)).min
      assert(near(id)._1 === best._2)
      assert(math.abs(near(id)._2 - best._1) < 1e-9)
    }
  }

  test("station nodes carry station coords; candidate nodes carry centroids") {
    import spark.implicits._
    val stationNodes = cand.nodes.filter($"is_station")
    assert(stationNodes.count() === cleaned.stations.count())
    val candidateNodes = cand.nodes.filter(!$"is_station")
    assert(candidateNodes.filter($"node_id" < CandidateGraph.CandidateOffset).count() === 0L)
  }

  test("trips preserve the cleaned rental count") {
    assert(cand.trips.count() === cleaned.rentals.count())
    assert(stats.nTrips === cleaned.rentals.count())
  }

  test("stats: node counts are consistent") {
    assert(stats.nNodes === stats.nStationNodes + stats.nCandidateNodes)
    assert(stats.nStationNodes === cleaned.stations.count())
    assert(stats.nCandidateNodes > 0)
  }

  test("stats: directed >= undirected, loops consistent") {
    assert(stats.directedEdges >= stats.undirectedEdges)
    assert(stats.undirectedEdges > 0)
    val undirLoops = stats.undirectedEdges - stats.undirectedEdgesNoLoops
    val dirLoops = stats.directedEdges - stats.directedEdgesNoLoops
    assert(undirLoops === dirLoops) // a self pair is one edge in both views
    assert(stats.directedEdgesNoLoops <= 2 * stats.undirectedEdgesNoLoops)
  }

  test("stats: exact Table II counts on a hand-built graph") {
    // directed pairs 1→2, 2→1, 1→1, A→1, B→A, 2→A; undirected {1,2},
    // {1,1}, {1,A}, {A,B}, {2,A}
    assert(HandBuiltGraph.candidate(spark).stats === CandidateGraph.Stats(
      nNodes = 4, nStationNodes = 2, nCandidateNodes = 2,
      undirectedEdges = 5, undirectedEdgesNoLoops = 4,
      directedEdges = 6, directedEdgesNoLoops = 5, nTrips = 7))
  }

  test("stats match DuckDB oracle") {
    import spark.implicits._
    val s = stats
    Oracle.assertEquivalent(
      Seq((s.nNodes, s.nStationNodes, s.nCandidateNodes, s.undirectedEdges,
           s.undirectedEdgesNoLoops, s.directedEdges, s.directedEdgesNoLoops, s.nTrips))
        .toDF("n_nodes", "n_station", "n_candidate", "undirected", "undirected_no_loops",
              "directed", "directed_no_loops", "n_trips"),
      """WITH p AS (SELECT CAST(src_node AS BIGINT) AS s, CAST(dst_node AS BIGINT) AS d FROM trips),
        |dir AS (SELECT DISTINCT s, d FROM p),
        |und AS (SELECT DISTINCT least(s, d) AS a, greatest(s, d) AS b FROM p)
        |SELECT (SELECT COUNT(*) FROM nodes) AS n_nodes,
        |(SELECT COUNT(*) FROM nodes WHERE is_station = 'true') AS n_station,
        |(SELECT COUNT(*) FROM nodes WHERE is_station = 'false') AS n_candidate,
        |(SELECT COUNT(*) FROM und) AS undirected,
        |(SELECT COUNT(*) FROM und WHERE a <> b) AS undirected_no_loops,
        |(SELECT COUNT(*) FROM dir) AS directed,
        |(SELECT COUNT(*) FROM dir WHERE s <> d) AS directed_no_loops,
        |(SELECT COUNT(*) FROM p) AS n_trips""".stripMargin,
      "trips" -> cand.trips.select($"src_node", $"dst_node"),
      "nodes" -> cand.nodes.select($"node_id", $"is_station"))
  }

  test("every trip endpoint maps to an existing node") {
    import spark.implicits._
    val nodeIds = cand.nodes.select($"node_id")
    assert(cand.trips.join(nodeIds.withColumnRenamed("node_id", "src_node"),
      Seq("src_node"), "left_anti").count() === 0L)
    assert(cand.trips.join(nodeIds.withColumnRenamed("node_id", "dst_node"),
      Seq("dst_node"), "left_anti").count() === 0L)
  }

  test("directed edge aggregation matches DuckDB oracle") {
    import spark.implicits._
    val sparkEdges = cand.trips.groupBy($"src_node", $"dst_node")
      .agg(count(lit(1)) as "w")
      .filter($"src_node" < CandidateGraph.CandidateOffset) // keep the oracle table small
    Oracle.assertEquivalent(sparkEdges,
      s"""SELECT src_node, dst_node, CAST(COUNT(*) AS BIGINT) AS w
         |FROM trips WHERE CAST(src_node AS BIGINT) < ${CandidateGraph.CandidateOffset}
         |GROUP BY src_node, dst_node""".stripMargin,
      "trips" -> cand.trips.select($"src_node", $"dst_node"))
  }

  test("candidate count roughly tracks the hotspot count at this sf") {
    val c = MobySynth.counts(sf)
    // each hotspot anchor has >= 1 location; most become 1-2 clusters, and
    // station stragglers add a few more
    assert(stats.nCandidateNodes > c.hotspots / 2, s"too few: ${stats.nCandidateNodes}")
    assert(stats.nCandidateNodes < c.hotspots * 3, s"too many: ${stats.nCandidateNodes}")
  }

  test("no trips are lost or duplicated by the node mapping (oracle)") {
    import spark.implicits._
    val perNode = cand.trips.groupBy($"src_node").agg(count(lit(1)) as "n")
      .agg(sum($"n") as "total")
    Oracle.assertEquivalent(perNode,
      "SELECT CAST(COUNT(*) AS BIGINT) AS total FROM trips",
      "trips" -> cand.trips.select($"rental_id"))
  }
}
