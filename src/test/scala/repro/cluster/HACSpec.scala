package repro.cluster

import org.scalacheck.{Gen, Prop}
import repro.{Props, SparkSpec}
import repro.geo.Haversine

/** Tests for complete-linkage HAC with diameter cut. */
class HACSpec extends SparkSpec {

  private val mLat = Haversine.MetresPerDegLat
  private def mLon(lat: Double) = Haversine.metresPerDegLon(lat)

  /** Place a point `dxM` metres east and `dyM` north of a base coord. */
  private def at(baseLat: Double, baseLon: Double, dxM: Double, dyM: Double): (Double, Double) =
    (baseLat + dyM / mLat, baseLon + dxM / mLon(baseLat))

  // ---- localCompleteLinkage ----

  private def local(pts: Seq[(Long, Double, Double)], cut: Double): Map[Long, Int] = {
    val arr = pts.sortBy(_._1).toArray
    val labels = HAC.localCompleteLinkage(arr.map(_._1), arr.map(_._2), arr.map(_._3), cut)
    arr.map(_._1).zip(labels).toMap
  }

  test("single point forms one cluster") {
    assert(local(Seq((1L, 53.33, -6.26)), 100.0).values.toSet.size === 1)
  }

  test("two points within cut merge; beyond cut stay apart") {
    val (la2, lo2) = at(53.33, -6.26, 60, 0)
    val near = local(Seq((1L, 53.33, -6.26), (2L, la2, lo2)), 100.0)
    assert(near(1L) === near(2L))
    val (la3, lo3) = at(53.33, -6.26, 150, 0)
    val far = local(Seq((1L, 53.33, -6.26), (2L, la3, lo3)), 100.0)
    assert(far(1L) !== far(2L))
  }

  test("complete linkage: chain of 3 points 60 m apart does not fully merge at 100 m") {
    // complete linkage distance between {A,B} and {C} is d(A,C)=120 > 100
    val a = (1L, 53.33, -6.26)
    val (bLat, bLon) = at(53.33, -6.26, 60, 0)
    val (cLat, cLon) = at(53.33, -6.26, 120, 0)
    val res = local(Seq(a, (2L, bLat, bLon), (3L, cLat, cLon)), 100.0)
    assert(res.values.toSet.size === 2, s"got $res")
    // B merges with the closer side first (ties broken deterministically)
    assert(res(1L) === res(2L) || res(2L) === res(3L))
  }

  test("cluster diameter never exceeds the cut (random instances)") {
    val rnd = new scala.util.Random(12)
    (1 to 10).foreach { trial =>
      val pts = (0 until 80).map { i =>
        val (la, lo) = at(53.33, -6.26, rnd.nextDouble() * 600, rnd.nextDouble() * 600)
        (i.toLong, la, lo)
      }
      val res = local(pts, 100.0)
      val byCluster = pts.groupBy(p => res(p._1))
      byCluster.values.foreach { members =>
        for (a <- members; b <- members if a._1 < b._1) {
          val d = Haversine.metres(a._2, a._3, b._2, b._3)
          assert(d <= 100.0 + 1e-6, s"trial $trial: diameter violated: $d")
        }
      }
    }
  }

  test("tight blob always fully merges") {
    val rnd = new scala.util.Random(4)
    val pts = (0 until 40).map { i =>
      val (la, lo) = at(53.33, -6.26, rnd.nextDouble() * 30, rnd.nextDouble() * 30)
      (i.toLong, la, lo)
    }
    assert(local(pts, 100.0).values.toSet.size === 1)
  }

  test("matches naive exact HAC on small random instances") {
    val rnd = new scala.util.Random(33)
    (1 to 8).foreach { trial =>
      val pts = (0 until 25).map { i =>
        val (la, lo) = at(53.33, -6.26, rnd.nextDouble() * 400, rnd.nextDouble() * 400)
        (i.toLong, la, lo)
      }
      val mine = local(pts, 100.0)
      val mineSets = pts.groupBy(p => mine(p._1)).values.map(_.map(_._1).toSet).toSet
      assert(mineSets === PointClouds.naiveHAC(pts, 100.0), s"trial $trial mismatch")
    }
  }

  test("property: driver HAC equals the naive oracle (duplicates, cell edges)") {
    Props.check(Prop.forAllNoShrink(PointClouds.gen(30, 400.0, 100.0)) { pts =>
      val (assign, _) = HAC.clusterPoints(pts.toArray, 100.0)
      val clusters = assign.groupBy(_._2).map { case (cid, ms) => cid -> ms.map(_._1).toSet }
      clusters.forall { case (cid, ms) => cid == ms.min } &&
        clusters.values.toSet == PointClouds.naiveHAC(pts, 100.0)
    })
  }

  // ---- distributed cluster() ----

  private def runCluster(pts: Seq[(Long, Double, Double)], cut: Double, sep: Double = 0.0) = {
    import spark.implicits._
    HAC.cluster(spark, pts.toDF("id", "lat", "lon"), cut, sep)
  }

  test("cluster(): assignment covers every point exactly once") {
    import spark.implicits._
    val rnd = new scala.util.Random(8)
    val pts = (0 until 300).map { i =>
      val (la, lo) = at(53.33, -6.26, rnd.nextDouble() * 2000, rnd.nextDouble() * 2000)
      (i.toLong, la, lo)
    }
    val res = runCluster(pts, 100.0)
    val assigned = res.assignment.select("id").as[Long].collect().sorted
    assert(assigned.toSeq === pts.map(_._1).sorted.toSeq)
  }

  test("cluster(): cluster ids are min member ids; centroids are member means") {
    import spark.implicits._
    val rnd = new scala.util.Random(21)
    val pts = (0 until 120).map { i =>
      val (la, lo) = at(53.33, -6.26, rnd.nextDouble() * 1000, rnd.nextDouble() * 1000)
      (i.toLong, la, lo)
    }
    val res = runCluster(pts, 100.0)
    val assign = res.assignment.as[(Long, Long)].collect().toMap
    assign.groupBy(_._2).foreach { case (cid, members) =>
      assert(cid === members.keys.min)
    }
    val cents = res.centroids
      .select("cluster_id", "c_lat", "c_lon").as[(Long, Double, Double)].collect()
      .map(t => t._1 -> (t._2, t._3)).toMap
    val coord = pts.map(p => p._1 -> (p._2, p._3)).toMap
    assign.groupBy(_._2).foreach { case (cid, members) =>
      val (cla, clo) = cents(cid)
      val mlat = members.keys.map(coord(_)._1).sum / members.size
      val mlon = members.keys.map(coord(_)._2).sum / members.size
      assert(math.abs(cla - mlat) < 1e-9 && math.abs(clo - mlon) < 1e-9)
    }
  }

  test("cluster(): diameter bound holds end-to-end") {
    val rnd = new scala.util.Random(14)
    import spark.implicits._
    val pts = (0 until 250).map { i =>
      val (la, lo) = at(53.33, -6.26, rnd.nextDouble() * 1500, rnd.nextDouble() * 1500)
      (i.toLong, la, lo)
    }
    val res = runCluster(pts, 100.0)
    val assign = res.assignment.as[(Long, Long)].collect().toMap
    val coord = pts.map(p => p._1 -> (p._2, p._3)).toMap
    assign.groupBy(_._2).values.foreach { members =>
      val ids = members.keys.toSeq
      for (a <- ids; b <- ids if a < b) {
        val d = Haversine.metres(coord(a)._1, coord(a)._2, coord(b)._1, coord(b)._2)
        assert(d <= 100.0 + 1e-6)
      }
    }
  }

  test("cluster(): two separated blobs produce two clusters, matching local HAC") {
    val rnd = new scala.util.Random(2)
    val blob1 = (0 until 20).map { i =>
      val (la, lo) = at(53.33, -6.26, rnd.nextDouble() * 40, rnd.nextDouble() * 40)
      (i.toLong, la, lo)
    }
    val blob2 = (0 until 20).map { i =>
      val (la, lo) = at(53.33, -6.26, 500 + rnd.nextDouble() * 40, rnd.nextDouble() * 40)
      (100L + i, la, lo)
    }
    import spark.implicits._
    val res = runCluster(blob1 ++ blob2, 100.0)
    val assign = res.assignment.as[(Long, Long)].collect().toMap
    assert(assign.values.toSet.size === 2)
    assert(blob1.map(p => assign(p._1)).toSet.size === 1)
    assert(blob2.map(p => assign(p._1)).toSet.size === 1)
  }

  test("cluster(): centroid proximity merge enforces minimum separation") {
    import spark.implicits._
    // two tight blobs ~60 m apart: HAC at cut=50 keeps them separate
    // (diameter would exceed), but 80 m centroid separation merges them
    val blob1 = (0 until 5).map { i => val (la, lo) = at(53.33, -6.26, i * 2, 0); (i.toLong, la, lo) }
    val blob2 = (0 until 5).map { i => val (la, lo) = at(53.33, -6.26, 60 + i * 2, 0); (10L + i, la, lo) }
    val noMerge = runCluster(blob1 ++ blob2, 50.0, 0.0)
    assert(noMerge.assignment.as[(Long, Long)].collect().toMap.values.toSet.size === 2)
    val merged = runCluster(blob1 ++ blob2, 50.0, 80.0)
    assert(merged.assignment.as[(Long, Long)].collect().toMap.values.toSet.size === 1)
    // surviving centroids are pairwise >= 80 m apart
    val cents = merged.centroids.select("c_lat", "c_lon").as[(Double, Double)].collect()
    for (a <- cents; b <- cents if a != b)
      assert(Haversine.metres(a._1, a._2, b._1, b._2) >= 80.0)
  }

  test("cluster(): merged centroid is the point-count weighted mean") {
    import spark.implicits._
    val blob1 = (0 until 8).map { i => val (la, lo) = at(53.33, -6.26, i % 3, i / 3); (i.toLong, la, lo) }
    val blob2 = (0 until 2).map { i => val (la, lo) = at(53.33, -6.26, 60 + i, 0); (20L + i, la, lo) }
    val merged = runCluster(blob1 ++ blob2, 50.0, 80.0)
    val cents = merged.centroids.select("c_lat", "c_lon", "n_points")
      .as[(Double, Double, Long)].collect()
    assert(cents.length === 1)
    assert(cents.head._3 === 10L)
    val all = blob1 ++ blob2
    val mlat = all.map(_._2).sum / all.size
    val mlon = all.map(_._3).sum / all.size
    assert(math.abs(cents.head._1 - mlat) < 1e-9)
    assert(math.abs(cents.head._2 - mlon) < 1e-9)
  }

  test("cluster(): deterministic across runs") {
    import spark.implicits._
    val rnd = new scala.util.Random(77)
    val pts = (0 until 150).map { i =>
      val (la, lo) = at(53.33, -6.26, rnd.nextDouble() * 800, rnd.nextDouble() * 800)
      (i.toLong, la, lo)
    }
    val a = runCluster(pts, 100.0, 50.0).assignment.as[(Long, Long)].collect().toMap
    val b = runCluster(pts, 100.0, 50.0).assignment.as[(Long, Long)].collect().toMap
    assert(a === b)
  }

  test("cluster(): zero points give an empty assignment and no centroids") {
    val res = runCluster(Seq.empty, 100.0, 50.0)
    assert(res.assignment.columns.toSeq === Seq("id", "cluster_id"))
    assert(res.assignment.count() === 0L)
    assert(res.centroids.count() === 0L)
  }

  test("property: cluster() is invariant under permutation of the input rows") {
    import spark.implicits._
    def run(pts: Seq[(Long, Double, Double)]) = {
      val res = runCluster(pts, 100.0, 50.0)
      (res.assignment.as[(Long, Long)].collect().toMap,
       res.centroids.as[HAC.Centroid].collect().toSet)
    }
    Props.check(Prop.forAllNoShrink(PointClouds.gen(60, 600.0, 100.0), Gen.long) { (pts, seed) =>
      run(pts) == run(new scala.util.Random(seed).shuffle(pts))
    }, minSuccessful = 25)
  }
}
