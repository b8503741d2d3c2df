package repro.core

import java.sql.Timestamp
import org.apache.spark.sql.functions._
import org.scalacheck.{Gen, Prop}
import repro.{Oracle, Props, SparkSpec}

/** Tests for the temporal graph builders (G_Basic, G_Day, G_Hour) with
  * co-activity weighting: w_T(i,j) = Σ_s #trips(i,j,s)·r^γ where
  * r = |S|·(q_i(s)+q_j(s))/2.
  */
class TemporalGraphsSpec extends SparkSpec {

  import TemporalGraphs._

  private def trip(id: Long, s: Long, d: Long, ts: String) =
    (id, s, d, Timestamp.valueOf(ts))

  private lazy val toyTrips = {
    import spark.implicits._
    Seq(
      trip(1, 1, 2, "2020-06-01 08:00:00"), // Monday
      trip(2, 2, 1, "2020-06-01 09:00:00"), // Monday
      trip(3, 1, 2, "2020-06-06 13:00:00"), // Saturday
      trip(4, 3, 3, "2020-06-03 12:00:00"), // Wednesday, self-loop
      trip(5, 2, 3, "2020-06-06 13:30:00"), // Saturday
    ).toDF("rental_id", "src_node", "dst_node", "start_ts")
  }

  private implicit class Tup3Map(rows: Array[(Long, Long, Double)]) {
    def toMap2: Map[(Long, Long), Double] = rows.map(t => (t._1, t._2) -> t._3).toMap
  }

  test("slice: TNull is constant zero") {
    import spark.implicits._
    val s = toyTrips.select(sliceCol(TNull, $"start_ts") as "s").distinct().as[Int].collect()
    assert(s.toSeq === Seq(0))
  }

  test("slice: TDay maps Monday to 0 and Sunday to 6") {
    import spark.implicits._
    val df = Seq(
      (Timestamp.valueOf("2020-06-01 10:00:00"), "mon"),
      (Timestamp.valueOf("2020-06-07 10:00:00"), "sun"),
      (Timestamp.valueOf("2020-06-06 10:00:00"), "sat"),
    ).toDF("ts", "label")
    val got = df.select($"label", sliceCol(TDay, $"ts") as "s").as[(String, Int)].collect().toMap
    assert(got("mon") === 0)
    assert(got("sat") === 5)
    assert(got("sun") === 6)
  }

  test("slice: THour extracts the start hour") {
    import spark.implicits._
    val got = toyTrips.select($"rental_id", sliceCol(THour, $"start_ts") as "s")
      .as[(Long, Int)].collect().toMap
    assert(got(1L) === 8)
    assert(got(3L) === 13)
  }

  test("TNull edges equal raw undirected trip counts") {
    import spark.implicits._
    val e = edges(spark, toyTrips, TNull).as[(Long, Long, Double)].collect().toMap2
    assert(e((1L, 2L)) === 3.0) // trips 1,2,3 collapse to one unordered pair
    assert(e((3L, 3L)) === 1.0)
    assert(e((2L, 3L)) === 1.0)
  }

  test("TNull is invariant to gamma (r ≡ 1)") {
    import spark.implicits._
    val a = edges(spark, toyTrips, TNull, gamma = 1.0).as[(Long, Long, Double)].collect().toMap2
    val b = edges(spark, toyTrips, TNull, gamma = 5.0).as[(Long, Long, Double)].collect().toMap2
    assert(a === b)
  }

  test("profiles count trip endpoints per slice") {
    val p = profiles(TripGraph.collectTrips(toyTrips).toSeq.map(t => (t.src, t.dst, t.slice(TDay))))
    // node 1: trips 1 (Mon, src), 2 (Mon, dst), 3 (Sat, src)
    assert(p((1L, 0)) === 2L)
    assert(p((1L, 5)) === 1L)
    // node 3: trip 4 self (Wed) counts both endpoints + trip 5 dst (Sat)
    assert(p((3L, 2)) === 2L)
    assert(p((3L, 5)) === 1L)
  }

  test("TDay weights match the hand-computed co-activity factors (gamma=1)") {
    import spark.implicits._
    // q1 = {Mon: 2/3, Sat: 1/3}; q2 = {Mon: 1/2, Sat: 1/2};
    // q3 = {Wed: 2/3, Sat: 1/3}
    val e = edges(spark, toyTrips, TDay, gamma = 1.0).as[(Long, Long, Double)].collect().toMap2
    val r12mon = 7.0 * (2.0 / 3 + 0.5) / 2
    val r12sat = 7.0 * (1.0 / 3 + 0.5) / 2
    val r33wed = 7.0 * (2.0 / 3 + 2.0 / 3) / 2
    val r23sat = 7.0 * (0.5 + 1.0 / 3) / 2
    assert(math.abs(e((1L, 2L)) - (2 * r12mon + 1 * r12sat)) < 1e-9)
    assert(math.abs(e((3L, 3L)) - r33wed) < 1e-9)
    assert(math.abs(e((2L, 3L)) - r23sat) < 1e-9)
  }

  test("gamma amplifies the same factors") {
    import spark.implicits._
    val e = edges(spark, toyTrips, TDay, gamma = 2.0).as[(Long, Long, Double)].collect().toMap2
    val r33wed = 7.0 * (2.0 / 3 + 2.0 / 3) / 2
    assert(math.abs(e((3L, 3L)) - math.pow(r33wed, 2)) < 1e-9)
  }

  test("perfectly synchronized pair is boosted by |S| per trip") {
    import spark.implicits._
    // all activity of nodes 1 and 2 is on Monday: q = 1 ⇒ r = |S|
    val t = Seq(
      trip(1, 1, 2, "2020-06-01 08:00:00"),
      trip(2, 1, 2, "2020-06-01 09:00:00"),
      trip(3, 2, 1, "2020-06-01 10:00:00"),
    ).toDF("rental_id", "src_node", "dst_node", "start_ts")
    val e = edges(spark, t, TDay, gamma = 1.0).as[(Long, Long, Double)].collect().toMap2
    assert(math.abs(e((1L, 2L)) - 3.0 * 7.0) < 1e-9)
  }

  test("off-rhythm edges are damped relative to in-rhythm edges") {
    import spark.implicits._
    // 1-2 trade in both nodes' peak (Mon); 2-3 trade on Monday but node 3
    // is mostly a Saturday node: its q(Mon) is low, so the 2-3 trip gets a
    // smaller co-activity factor than the 1-2 trips
    val t = Seq(
      trip(1, 1, 2, "2020-06-01 08:00:00"), // Mon
      trip(2, 1, 2, "2020-06-01 09:00:00"), // Mon
      trip(3, 3, 4, "2020-06-06 13:00:00"), // Sat
      trip(4, 3, 4, "2020-06-06 14:00:00"), // Sat
      trip(5, 2, 3, "2020-06-01 12:00:00"), // Mon, cross-pattern
    ).toDF("rental_id", "src_node", "dst_node", "start_ts")
    val e = edges(spark, t, TDay, gamma = 1.0).as[(Long, Long, Double)].collect().toMap2
    val perTrip12 = e((1L, 2L)) / 2
    val perTrip23 = e((2L, 3L)) / 1
    assert(perTrip23 < perTrip12,
      s"cross-pattern per-trip weight $perTrip23 not below in-rhythm $perTrip12")
  }

  test("total TNull weight equals the number of trips") {
    import spark.implicits._
    val data = repro.TestFixtures.selected
    val total = edges(spark, data.trips, TNull).agg(sum($"weight")).head.getDouble(0)
    assert(total === data.trips.count().toDouble)
  }

  test("edge aggregation matches DuckDB oracle on the toy graph") {
    import spark.implicits._
    val sparkEdges = edges(spark, toyTrips, TNull)
      .select($"src", $"dst", $"weight".cast("double") as "weight")
    Oracle.assertEquivalent(sparkEdges,
      """SELECT LEAST(CAST(src_node AS BIGINT), CAST(dst_node AS BIGINT)) AS src,
        |GREATEST(CAST(src_node AS BIGINT), CAST(dst_node AS BIGINT)) AS dst,
        |CAST(COUNT(*) AS DOUBLE) AS weight
        |FROM trips GROUP BY 1, 2""".stripMargin,
      "trips" -> toyTrips.select($"src_node", $"dst_node"))
  }

  test("co-activity weight of an edge matches a DuckDB reference (oracle)") {
    import spark.implicits._
    // independent relational formulation of the same computation at γ=1
    val sparkEdges = edges(spark, toyTrips, TDay, gamma = 1.0)
      .select($"src", $"dst", round($"weight", 6) as "weight")
    Oracle.assertEquivalent(sparkEdges,
      """WITH t AS (
        |  SELECT LEAST(CAST(src_node AS BIGINT), CAST(dst_node AS BIGINT)) AS src,
        |         GREATEST(CAST(src_node AS BIGINT), CAST(dst_node AS BIGINT)) AS dst,
        |         CAST(slice AS BIGINT) AS slice
        |  FROM trips),
        |ends AS (
        |  SELECT src AS node_id, slice FROM t
        |  UNION ALL SELECT dst, slice FROM t),
        |p AS (
        |  SELECT node_id, slice, CAST(COUNT(*) AS DOUBLE) AS p
        |  FROM ends GROUP BY node_id, slice),
        |q AS (
        |  SELECT node_id, slice, p / SUM(p) OVER (PARTITION BY node_id) AS q FROM p)
        |SELECT t.src, t.dst,
        |       ROUND(SUM(7 * (qs.q + qd.q) / 2), 6) AS weight
        |FROM t
        |JOIN q qs ON qs.node_id = t.src AND qs.slice = t.slice
        |JOIN q qd ON qd.node_id = t.dst AND qd.slice = t.slice
        |GROUP BY t.src, t.dst""".stripMargin,
      "trips" -> toyTrips.select($"src_node", $"dst_node",
        sliceCol(TDay, $"start_ts") as "slice"))
  }

  test("edges are always unordered (src <= dst)") {
    import spark.implicits._
    for (g <- Seq(TNull, TDay, THour)) {
      val bad = edges(spark, toyTrips, g).filter($"src" > $"dst").count()
      assert(bad === 0L)
    }
  }

  test("finer granularity raises modularity on the pipeline graph") {
    val basic = repro.TestFixtures.basic.summary
    val day = repro.TestFixtures.day.summary
    val hourly = repro.TestFixtures.hourly.summary
    assert(day.modularity > basic.modularity - 0.02)
    assert(hourly.modularity > basic.modularity)
  }

  private def bits(edges: Seq[(Long, Long, Double)]): Seq[(Long, Long, Long)] =
    edges.map { case (s, d, w) => (s, d, java.lang.Double.doubleToLongBits(w)) }

  private def graph(trips: Seq[TripGraph.Trip]) = TripGraph(Array.empty, trips.toArray)

  /** Up to 60 trips over at most 5 nodes, so self-loops and repeated pairs
    * are common, on any day and at any hour.
    */
  private val genTrips: Gen[Seq[TripGraph.Trip]] = for {
    nNodes <- Gen.choose(1, 5)
    rows <- Gen.choose(1, 60).flatMap(n => Gen.listOfN(n, Gen.zip(
      Gen.choose(1L, nNodes.toLong), Gen.choose(1L, nNodes.toLong),
      Gen.choose(0, 6), Gen.choose(0, 23))))
  } yield rows.zipWithIndex.map { case ((s, d, day, hour), i) => TestGraphs.trip(i, s, d, day, hour) }

  private val genGranularity = Gen.oneOf[Granularity](TNull, TDay, THour)

  test("property: weights are bitwise invariant under permutation of the trips") {
    Props.check(Prop.forAllNoShrink(genTrips, genGranularity, Gen.choose(0.5, 8.0), Gen.long) {
      (trips, g, gamma, seed) =>
        bits(weights(graph(trips), g, gamma)) ==
          bits(weights(graph(new scala.util.Random(seed).shuffle(trips)), g, gamma))
    })
  }

  test("property: weights equal a naive per-trip sum of co-activity factors") {
    Props.check(Prop.forAllNoShrink(genTrips, genGranularity, Gen.choose(0.5, 8.0)) {
      (trips, g, gamma) =>
        val ends = trips.flatMap(t => Seq((t.src, t.slice(g)), (t.dst, t.slice(g))))
        def q(node: Long, slice: Int) =
          ends.count(_ == ((node, slice))).toDouble / ends.count(_._1 == node)
        val naive = trips.groupMapReduce(t => (t.src min t.dst, t.src max t.dst)) { t =>
          val s = t.slice(g)
          math.pow(g.slices * (q(t.src, s) + q(t.dst, s)) / 2, gamma)
        }(_ + _)
        val got = weights(graph(trips), g, gamma)
        got.map(e => (e._1, e._2)).toSet == naive.keySet && got.forall { case (s, d, w) =>
          math.abs(w - naive((s, d))) <= 1e-9 * naive((s, d))
        }
    })
  }

  test("property: T_Null weights are the unordered-pair trip counts for any gamma") {
    Props.check(Prop.forAllNoShrink(genTrips, Gen.choose(0.5, 8.0)) { (trips, gamma) =>
      val counts = trips.groupMapReduce(t => (t.src min t.dst, t.src max t.dst))(_ => 1.0)(_ + _)
      val got = weights(graph(trips), TNull, gamma)
      got.map(e => (e._1, e._2) -> e._3).toMap == counts && got.map(_._3).sum == trips.size
    })
  }

  test("edges over the selected trips equal weights over the selected graph, bitwise") {
    import spark.implicits._
    val selected = repro.TestFixtures.selected
    for (g <- Seq(TNull, TDay, THour)) {
      val viaSpark = edges(spark, selected.trips, g).as[(Long, Long, Double)].collect().toSeq
      assert(bits(viaSpark) === bits(weights(selected.graph, g)), g.name)
    }
  }
}
