package repro.core

import org.scalacheck.{Gen, Prop}
import repro.{Props, SparkSpec}
import repro.geo.Haversine

/** Tests for Algorithm 1 (station ranking and selection). */
class StationSelectionSpec extends SparkSpec {

  private lazy val cand = repro.TestFixtures.candidate
  private lazy val sel = repro.TestFixtures.selection

  test("degrees: sum of degrees equals 2 x trips") {
    assert(cand.graph.degrees.values.sum === 2 * cand.trips.count())
  }

  test("degrees match an independent computation") {
    import spark.implicits._
    val out = cand.trips.groupBy($"src_node").count().as[(Long, Long)].collect().toMap
    val in = cand.trips.groupBy($"dst_node").count().as[(Long, Long)].collect().toMap
    val deg = cand.graph.degrees
    deg.foreach { case (node, d) =>
      assert(d === out.getOrElse(node, 0L) + in.getOrElse(node, 0L))
    }
    sel.candidates.foreach(c => assert(c.degree === deg.getOrElse(c.nodeId, 0L)))
  }

  test("threshold is the minimum fixed-station degree") {
    import spark.implicits._
    val deg = cand.graph.degrees
    val stationIds = cand.nodes.filter($"is_station").select($"node_id").as[Long].collect()
    val expected = stationIds.map(id => deg.getOrElse(id, 0L)).min
    assert(sel.degreeThreshold === expected)
  }

  test("rule 3: every selected candidate meets the degree threshold") {
    sel.selected.foreach(c => assert(c.degree >= sel.degreeThreshold))
  }

  test("rule 4: every selected candidate is > 250 m from every fixed station") {
    import spark.implicits._
    val sts = cand.nodes.filter($"is_station")
      .select($"lat", $"lon").as[(Double, Double)].collect()
    sel.selected.foreach { c =>
      val dMin = sts.map(s => Haversine.metres(c.lat, c.lon, s._1, s._2)).min
      assert(dMin > 250.0, s"candidate ${c.nodeId} is ${dMin}m from a station")
    }
  }

  test("pairwise: no two selected candidates are within 250 m") {
    val s = sel.selected
    for (a <- s; b <- s if a.nodeId < b.nodeId) {
      val d = Haversine.metres(a.lat, a.lon, b.lat, b.lon)
      assert(d >= 250.0, s"${a.nodeId} and ${b.nodeId} are ${d}m apart")
    }
  }

  test("selected candidates keep score = degree; rejected have score 0") {
    sel.candidates.foreach { c =>
      if (c.selected) assert(c.score === c.degree) else assert(c.score === 0L)
    }
  }

  test("output is sorted by score descending") {
    val scores = sel.candidates.map(_.score)
    assert(scores === scores.sortBy(-_))
  }

  test("every candidate node appears exactly once in the result") {
    import spark.implicits._
    val candIds = cand.nodes.filter(!$"is_station").select($"node_id").as[Long].collect().sorted
    assert(sel.candidates.map(_.nodeId).sorted === candIds.toSeq)
  }

  test("some candidates are selected and some rejected at this sf") {
    assert(sel.selected.nonEmpty, "no new stations selected")
    assert(sel.selected.size < sel.candidates.size, "all candidates selected")
  }

  test("pairwise pruning keeps the higher-degree member of close pairs") {
    // toy scenario: three candidates in a 200 m line, degrees 10, 5, 8;
    // fixed station far away with degree 1 (threshold=1)
    val mLat = Haversine.MetresPerDegLat
    val base = (53.33, -6.26)
    val nodes = Seq(
      (0L, 53.40, -6.40, true),
      (101L, base._1, base._2, false),
      (102L, base._1 + 100 / mLat, base._2, false),
      (103L, base._1 + 200 / mLat, base._2, false),
    )
    def trips(n: Int, a: Long, b: Long, offset: Int) =
      (0 until n).map(i => TestGraphs.trip((offset + i).toLong, a, b))
    // degrees: 101 -> 10, 102 -> 5, 103 -> 8 (as src), station 0 degree 2
    val t = trips(1, 0L, 0L, 0) ++ trips(10, 101L, 101L, 100) ++
            trips(5, 102L, 102L, 200) ++ trips(8, 103L, 103L, 300)
    val res = StationSelection.select(spark,
      CandidateGraph.Result(TestGraphs.graph(nodes, t), spark.emptyDataFrame), minDistM = 250.0)
    // 101 and 102 are 100 m apart; 102 and 103 100 m; 101 and 103 200 m.
    // highest degree 101 survives; 102 and 103 both conflict with it.
    val selectedIds = res.selected.map(_.nodeId).toSet
    assert(selectedIds === Set(101L))
  }

  test("degree threshold rejects low-traffic candidates (toy)") {
    val nodes = Seq(
      (0L, 53.40, -6.40, true),
      (101L, 53.33, -6.26, false),
      (102L, 53.30, -6.20, false),
    )
    def trips(n: Int, a: Long, offset: Int) =
      (0 until n).map(i => TestGraphs.trip((offset + i).toLong, a, a))
    val t = trips(5, 0L, 0) ++ trips(7, 101L, 100) ++ trips(2, 102L, 200)
    val res = StationSelection.select(spark,
      CandidateGraph.Result(TestGraphs.graph(nodes, t), spark.emptyDataFrame), minDistM = 250.0)
    // threshold = station degree = 10 (5 round trips); 101 has 14, 102 has 4
    assert(res.degreeThreshold === 10L)
    assert(res.selected.map(_.nodeId) === Seq(101L))
  }

  test("candidates near a station are rejected regardless of degree (toy)") {
    val mLat = Haversine.MetresPerDegLat
    val nodes = Seq(
      (0L, 53.33, -6.26, true),
      (101L, 53.33 + 200 / mLat, -6.26, false), // 200 m from station
      (102L, 53.33 + 400 / mLat, -6.26, false), // 400 m away
    )
    def trips(n: Int, a: Long, offset: Int) =
      (0 until n).map(i => TestGraphs.trip((offset + i).toLong, a, a))
    val t = trips(1, 0L, 0) ++ trips(50, 101L, 100) ++ trips(50, 102L, 1000)
    val res = StationSelection.select(spark,
      CandidateGraph.Result(TestGraphs.graph(nodes, t), spark.emptyDataFrame), minDistM = 250.0)
    assert(res.selected.map(_.nodeId) === Seq(102L))
  }

  test("property: selection is invariant under permutation of the graph's nodes and trips") {
    // 1-3 stations and up to 25 candidates on a 1.5 km square, so Rule 4
    // and the pairwise pruning both fire; few trips, so degrees tie
    val mLon = Haversine.metresPerDegLon(53.35)
    val point = for (x <- Gen.choose(0.0, 1500.0); y <- Gen.choose(0.0, 1500.0))
      yield (53.35 + y / Haversine.MetresPerDegLat, -6.26 + x / mLon)
    val gen = for {
      nStations <- Gen.choose(1, 3)
      points <- Gen.choose(2, 25).flatMap(n => Gen.listOfN(nStations + n, point))
      ends <- Gen.choose(0, 150).flatMap(n => Gen.listOfN(n,
        Gen.zip(Gen.choose(0, points.size - 1), Gen.choose(0, points.size - 1))))
      seed <- Gen.long
    } yield (nStations, points, ends, seed)
    def select(g: TripGraph) =
      StationSelection.select(spark, CandidateGraph.Result(g, spark.emptyDataFrame))
    Props.check(Prop.forAllNoShrink(gen) { case (nStations, points, ends, seed) =>
      val ids = points.indices.map(i =>
        if (i < nStations) i + 1L else CandidateGraph.CandidateOffset + i)
      val nodes = points.zipWithIndex.map { case ((la, lo), i) => (ids(i), la, lo, i < nStations) }
      val trips = ends.zipWithIndex.map { case ((a, b), k) => TestGraphs.trip(k, ids(a), ids(b)) }
      val rnd = new scala.util.Random(seed)
      select(TestGraphs.graph(nodes, trips)) ==
        select(TestGraphs.graph(rnd.shuffle(nodes), rnd.shuffle(trips)))
    })
  }
}
