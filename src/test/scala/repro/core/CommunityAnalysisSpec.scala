package repro.core

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}

/** Tests for the community summary tables (Tables IV-VI shape). */
class CommunityAnalysisSpec extends SparkSpec {

  /** A node is new iff it is not a fixed station, so is_new is !is_station. */
  private def mkSelected(nodes: Seq[(Long, Double, Double, Boolean)],
                         trips: Seq[(Long, Long, Long)]): SelectedGraph.Result =
    SelectedGraph.Result(TestGraphs.graph(nodes,
      trips.map { case (id, s, d) => TestGraphs.trip(id, s, d) }))

  private lazy val toy = mkSelected(
    nodes = Seq(
      (1L, 53.33, -6.26, true), (2L, 53.34, -6.27, true),
      (3L, 53.35, -6.28, false), (4L, 53.36, -6.29, false),
      (5L, 53.37, -6.30, true)),
    trips = Seq(
      (1L, 1L, 2L), (2L, 2L, 1L), (3L, 1L, 1L), // inside community A
      (4L, 3L, 4L), (5L, 4L, 3L),               // inside community B
      (6L, 1L, 3L), (7L, 4L, 2L),               // cross-community
      (8L, 5L, 5L)))                            // singleton community C

  private val assign = Map(1L -> 1L, 2L -> 1L, 3L -> 3L, 4L -> 3L, 5L -> 5L)

  private lazy val summary = CommunityAnalysis.summarize(spark, toy, assign, modularity = 0.42)

  test("one row per community, renumbered 1..K by size") {
    assert(summary.nCommunities === 3)
    assert(summary.rows.map(_.communityId) === Seq(1L, 2L, 3L))
    assert(summary.rows.head.totalStations === 2L)
    assert(summary.rows.last.totalStations === 1L)
  }

  test("old/new station counts per community") {
    val bySize = summary.rows
    // communities of size 2: {1,2} old+old and {3,4} new+new
    val c12 = bySize.find(r => r.oldStations === 2L)
    val c34 = bySize.find(r => r.newStations === 2L)
    assert(c12.nonEmpty && c34.nonEmpty)
    assert(c12.get.newStations === 0L)
    assert(c34.get.oldStations === 0L)
  }

  test("within/out/in trip counts per community") {
    val c12 = summary.rows.find(_.oldStations === 2L).get
    assert(c12.within === 3L) // trips 1,2,3
    assert(c12.out === 1L)    // trip 6
    assert(c12.in === 1L)     // trip 7
    assert(c12.total === 5L)
    val c34 = summary.rows.find(_.newStations === 2L).get
    assert(c34.within === 2L)
    assert(c34.out === 1L)
    assert(c34.in === 1L)
    val c5 = summary.rows.find(_.totalStations === 1L).get
    assert(c5.within === 1L && c5.out === 0L && c5.in === 0L)
  }

  test("trip totals are conserved: sum(within) + sum(out) = all trips") {
    val within = summary.rows.map(_.within).sum
    val out = summary.rows.map(_.out).sum
    val in = summary.rows.map(_.in).sum
    assert(within + out === 8L)
    assert(out === in)
  }

  test("self-containment ratio") {
    assert(math.abs(summary.selfContainment - 6.0 / 8.0) < 1e-12)
  }

  test("modularity is carried through") {
    assert(summary.modularity === 0.42)
  }

  test("station membership counts match DuckDB oracle") {
    import spark.implicits._
    val commDf = assign.toSeq.toDF("node_id", "community")
    val sparkAgg = toy.nodes.join(commDf, "node_id")
      .groupBy($"community")
      .agg(sum(when($"is_new", 1L).otherwise(0L)) as "new_st", count(lit(1)) as "total_st")
    Oracle.assertEquivalent(sparkAgg,
      """SELECT c.community,
        |CAST(SUM(CASE WHEN n.is_new = 'true' THEN 1 ELSE 0 END) AS BIGINT) AS new_st,
        |CAST(COUNT(*) AS BIGINT) AS total_st
        |FROM nodes n JOIN comm c ON n.node_id = c.node_id
        |GROUP BY c.community""".stripMargin,
      "nodes" -> toy.nodes.select($"node_id", $"is_new".cast("string") as "is_new"),
      "comm" -> commDf)
  }

  test("within/out/in matches DuckDB oracle") {
    import spark.implicits._
    val commDf = assign.toSeq.toDF("node_id", "community")
    val withComm = toy.trips
      .join(commDf.select($"node_id" as "src_node", $"community" as "c_src"), "src_node")
      .join(commDf.select($"node_id" as "dst_node", $"community" as "c_dst"), "dst_node")
    val sparkAgg = withComm.groupBy($"c_src")
      .agg(sum(when($"c_src" === $"c_dst", 1L).otherwise(0L)) as "within",
           sum(when($"c_src" =!= $"c_dst", 1L).otherwise(0L)) as "out")
      .withColumnRenamed("c_src", "community")
    Oracle.assertEquivalent(sparkAgg,
      """SELECT cs.community AS community,
        |CAST(SUM(CASE WHEN cs.community = cd.community THEN 1 ELSE 0 END) AS BIGINT) AS within,
        |CAST(SUM(CASE WHEN cs.community <> cd.community THEN 1 ELSE 0 END) AS BIGINT) AS "out"
        |FROM trips t
        |JOIN comm cs ON t.src_node = cs.node_id
        |JOIN comm cd ON t.dst_node = cd.node_id
        |GROUP BY cs.community""".stripMargin,
      "trips" -> toy.trips.select($"rental_id", $"src_node", $"dst_node"),
      "comm" -> commDf)
  }

  test("a station with no trips keeps its row; unmapped nodes are left out") {
    val g = mkSelected(
      nodes = Seq(
        (1L, 53.33, -6.26, true), (2L, 53.34, -6.27, false),
        (5L, 53.35, -6.28, true),
        (6L, 53.36, -6.29, false),  // final station, no trips
        (7L, 53.37, -6.30, true)), // not in the community map
      trips = Seq((1L, 1L, 2L), (2L, 2L, 1L), (3L, 5L, 5L), (4L, 7L, 1L), (5L, 1L, 7L)))
    val s = CommunityAnalysis.summarize(spark, g, Map(1L -> 10L, 2L -> 10L, 5L -> 8L, 6L -> 6L),
                                        modularity = 0.0)
    // ties on size keep ascending raw id: 6 before 8
    assert(s.rows === Seq(
      CommunityAnalysis.CommunityRow(1L, 1L, 1L, 2L, within = 2L, out = 0L, in = 0L),
      CommunityAnalysis.CommunityRow(2L, 0L, 1L, 1L, within = 0L, out = 0L, in = 0L),
      CommunityAnalysis.CommunityRow(3L, 1L, 0L, 1L, within = 1L, out = 0L, in = 0L)))
  }

  test("empty communities never appear (every row has >= 1 station)") {
    assert(summary.rows.forall(_.totalStations >= 1))
  }
}
