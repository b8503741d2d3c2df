package repro.core

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.data.{Cleaning, MobySynth}
import repro.geo.Haversine

/** Tests for the selected graph (paper §V-B, Table III). */
class SelectedGraphSpec extends SparkSpec {

  private lazy val cleaned = repro.TestFixtures.cleaned
  private lazy val cand = repro.TestFixtures.candidate
  private lazy val sel = repro.TestFixtures.selection
  private lazy val graph = repro.TestFixtures.selected
  private lazy val stats = graph.stats

  test("total trips are conserved by redirection") {
    assert(graph.trips.count() === cand.trips.count())
    assert(stats.totalTrips === cleaned.rentals.count())
  }

  test("final node set = stations + selected candidates") {
    import spark.implicits._
    val expected = cand.nodes.filter($"is_station").count() + sel.selected.size
    assert(graph.nodes.count() === expected)
    assert(stats.totalStations === expected)
    assert(stats.preExisting.stations === cand.nodes.filter($"is_station").count())
    assert(stats.selected.stations === sel.selected.size.toLong)
  }

  test("no trip references a rejected node after redirection") {
    import spark.implicits._
    val finalIds = graph.nodes.select($"node_id")
    assert(graph.trips.join(finalIds.withColumnRenamed("node_id", "src_node"),
      Seq("src_node"), "left_anti").count() === 0L)
    assert(graph.trips.join(finalIds.withColumnRenamed("node_id", "dst_node"),
      Seq("dst_node"), "left_anti").count() === 0L)
  }

  test("redirection sends rejected-node trips to the nearest final station") {
    import spark.implicits._
    val finals = graph.nodes.select($"node_id", $"lat", $"lon")
      .as[(Long, Double, Double)].collect()
    val rejected = sel.candidates.filterNot(_.selected).take(20)
    // recompute expected target for a sample of rejected nodes and verify
    // their trips all moved there
    rejected.foreach { r =>
      val expected = finals.minBy { case (id, la, lo) =>
        (Haversine.metres(r.lat, r.lon, la, lo), id)
      }._1
      val before = cand.trips.filter($"src_node" === r.nodeId).select($"rental_id")
      if (before.head(1).nonEmpty) {
        val after = graph.trips.join(before, "rental_id")
          .select($"src_node").distinct().as[Long].collect()
        assert(after.toSeq === Seq(expected),
          s"rejected ${r.nodeId}: trips went to ${after.toSeq}, expected $expected")
      }
    }
  }

  test("trips at kept nodes are unchanged") {
    import spark.implicits._
    val keptIds = graph.nodes.select($"node_id").as[Long].collect().toSet
    val sample = cand.trips
      .filter($"src_node".isin(keptIds.toSeq: _*) && $"dst_node".isin(keptIds.toSeq: _*))
      .limit(500)
    val joined = sample.select($"rental_id", $"src_node" as "s0", $"dst_node" as "d0")
      .join(graph.trips, "rental_id")
    assert(joined.filter($"s0" =!= $"src_node" || $"d0" =!= $"dst_node").count() === 0L)
  }

  test("group stats are consistent: from/to sums equal totals") {
    assert(stats.preExisting.tripsFrom + stats.selected.tripsFrom === stats.totalTrips)
    assert(stats.preExisting.tripsTo + stats.selected.tripsTo === stats.totalTrips)
    assert(stats.preExisting.edgesFrom + stats.selected.edgesFrom === stats.totalEdges)
    assert(stats.preExisting.edgesTo + stats.selected.edgesTo === stats.totalEdges)
  }

  test("pre-existing stations dominate trip share (dockless incentive shape)") {
    val share = stats.preExisting.tripsFrom.toDouble / stats.totalTrips
    assert(share > 0.6, s"pre-existing from-share $share")
  }

  test("trips-from per group matches DuckDB oracle") {
    import spark.implicits._
    val flags = graph.nodes.select($"node_id" as "src_node", $"is_new")
    val sparkAgg = graph.trips.join(flags, "src_node")
      .groupBy($"is_new").agg(count(lit(1)) as "n")
      .select($"is_new".cast("string") as "is_new", $"n")
    Oracle.assertEquivalent(sparkAgg,
      """SELECT n.is_new AS is_new, CAST(COUNT(*) AS BIGINT) AS n
        |FROM trips t JOIN nodes n ON t.src_node = n.node_id
        |GROUP BY n.is_new""".stripMargin,
      "trips" -> graph.trips.select($"rental_id", $"src_node"),
      "nodes" -> graph.nodes.select($"node_id", $"is_new".cast("string") as "is_new"))
  }

  test("stats: exact Table III counts on a hand-built graph") {
    val g = SelectedGraph.build(spark, HandBuiltGraph.candidate(spark), HandBuiltGraph.selection)
    // B→A is redirected to 2→A, so the trips are 1→2 ×2, 2→1, 1→1, A→1,
    // 2→A ×2 and the distinct edges 1→2, 2→1, 1→1, A→1, 2→A
    assert(g.stats === SelectedGraph.Stats(
      preExisting = SelectedGraph.GroupStats(stations = 2, tripsFrom = 6, tripsTo = 5,
                                             edgesFrom = 4, edgesTo = 4),
      selected = SelectedGraph.GroupStats(stations = 1, tripsFrom = 1, tripsTo = 2,
                                          edgesFrom = 1, edgesTo = 1),
      totalStations = 3, totalTrips = 7, totalEdges = 5))
  }

  test("stats match DuckDB oracle") {
    import spark.implicits._
    def row(isNew: Boolean, g: SelectedGraph.GroupStats) =
      (isNew.toString, g.stations, g.tripsFrom, g.tripsTo, g.edgesFrom, g.edgesTo,
       stats.totalStations, stats.totalTrips, stats.totalEdges)
    Oracle.assertEquivalent(
      Seq(row(isNew = false, stats.preExisting), row(isNew = true, stats.selected))
        .toDF("is_new", "stations", "trips_from", "trips_to", "edges_from", "edges_to",
              "total_stations", "total_trips", "total_edges"),
      """WITH e AS (SELECT DISTINCT src_node, dst_node FROM trips)
        |SELECT g.is_new AS is_new,
        |(SELECT COUNT(*) FROM nodes n WHERE n.is_new = g.is_new) AS stations,
        |(SELECT COUNT(*) FROM trips t JOIN nodes n ON t.src_node = n.node_id
        |  WHERE n.is_new = g.is_new) AS trips_from,
        |(SELECT COUNT(*) FROM trips t JOIN nodes n ON t.dst_node = n.node_id
        |  WHERE n.is_new = g.is_new) AS trips_to,
        |(SELECT COUNT(*) FROM e JOIN nodes n ON e.src_node = n.node_id
        |  WHERE n.is_new = g.is_new) AS edges_from,
        |(SELECT COUNT(*) FROM e JOIN nodes n ON e.dst_node = n.node_id
        |  WHERE n.is_new = g.is_new) AS edges_to,
        |(SELECT COUNT(*) FROM nodes) AS total_stations,
        |(SELECT COUNT(*) FROM trips) AS total_trips,
        |(SELECT COUNT(*) FROM e) AS total_edges
        |FROM (VALUES ('false'), ('true')) g(is_new)""".stripMargin,
      "trips" -> graph.trips.select($"src_node", $"dst_node"),
      "nodes" -> graph.nodes.select($"node_id", $"is_new"))
  }

  test("selected stations gain trips only from their own or rejected clusters") {
    import spark.implicits._
    // a selected station's trips after redirection >= its trips before
    val before = cand.trips.groupBy($"src_node").count().as[(Long, Long)].collect().toMap
    val after = graph.trips.groupBy($"src_node").count().as[(Long, Long)].collect().toMap
    sel.selected.foreach { s =>
      assert(after.getOrElse(s.nodeId, 0L) >= before.getOrElse(s.nodeId, 0L))
    }
  }
}
