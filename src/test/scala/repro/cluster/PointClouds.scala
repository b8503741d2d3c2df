package repro.cluster

import org.scalacheck.Gen
import repro.geo.Haversine

/** Random (id, lat, lon) clouds for the clustering properties, and the
  * naive complete-linkage oracle they are checked against.
  */
object PointClouds {

  private val mLat = Haversine.MetresPerDegLat
  private val mLon = Haversine.metresPerDegLon(53.33)

  /** Up to `maxN` points in a `sideM`-metre square at a random place in
    * the Dublin bounding box, with ids 0 until n in random order. About one
    * point in eight repeats an earlier point's coordinates (a duplicate GPS
    * fix), and about one in four is moved onto an edge of SpatialGrid's
    * cells for threshold `cellM`, in latitude, longitude or both.
    */
  def gen(maxN: Int, sideM: Double, cellM: Double): Gen[Seq[(Long, Double, Double)]] = for {
    lat0 <- Gen.choose(53.20, 53.46 - sideM / mLat)
    lon0 <- Gen.choose(-6.50, -6.06 - sideM / mLon)
    n <- Gen.choose(0, maxN)
    kinds <- Gen.listOfN(n, Gen.frequency(5 -> 0, 1 -> 1, 2 -> 2))
    edges <- Gen.listOfN(n, Gen.oneOf(1, 2, 3))
    xs <- Gen.listOfN(n, Gen.choose(0.0, sideM))
    ys <- Gen.listOfN(n, Gen.choose(0.0, sideM))
    picks <- Gen.listOfN(n, Gen.choose(0, Int.MaxValue))
    shuffle <- Gen.long
  } yield {
    // every latitude of the cloud has the same whole degree above it, so
    // these are the cells SpatialGrid.pairs uses
    val (dLat, dLon) = SpatialGrid.cellDegrees(lat0, cellM)
    def edge(deg: Double, cell: Double): Double = math.floor(deg / cell) * cell
    val coords = new Array[(Double, Double)](n)
    for (k <- 0 until n) {
      val (la, lo) = (lat0 + ys(k) / mLat, lon0 + xs(k) / mLon)
      coords(k) = kinds(k) match {
        case 1 if k > 0 => coords(picks(k) % k)
        case 2 => (if ((edges(k) & 1) != 0) edge(la, dLat) else la,
                   if ((edges(k) & 2) != 0) edge(lo, dLon) else lo)
        case _ => (la, lo)
      }
    }
    val ids = new scala.util.Random(shuffle).shuffle((0L until n.toLong).toList)
    ids.zip(coords).map { case (id, (la, lo)) => (id, la, lo) }
  }

  /** Every pair (a, b), a < b, within `t` metres, by brute force. */
  def brutePairs(pts: Seq[(Long, Double, Double)], t: Double): Set[(Long, Long)] =
    (for {
      a <- pts; b <- pts if a._1 < b._1
      if Haversine.metres(a._2, a._3, b._2, b._3) <= t
    } yield (a._1, b._1)).toSet

  /** Naive exact complete-linkage HAC: repeatedly merge the closest pair
    * of clusters, ties to the pair with the smallest member ids, until the
    * closest pair is further apart than `cut`.
    */
  def naiveHAC(pts: Seq[(Long, Double, Double)], cut: Double): Set[Set[Long]] = {
    val coord = pts.map(p => p._1 -> (p._2, p._3)).toMap
    def cl(a: Set[Long], b: Set[Long]): Double =
      (for (x <- a; y <- b) yield {
        val (la1, lo1) = coord(x); val (la2, lo2) = coord(y)
        Haversine.metres(la1, lo1, la2, lo2)
      }).max
    var clusters = pts.map(p => Set(p._1)).toList
    var done = false
    while (!done && clusters.size > 1) {
      val pairs = for (a <- clusters; b <- clusters if a.min < b.min) yield (cl(a, b), a.min, b.min, a, b)
      val (d, _, _, a, b) = pairs.minBy(t => (t._1, t._2, t._3))
      if (d > cut) done = true
      else clusters = (a ++ b) :: clusters.filter(c => c != a && c != b)
    }
    clusters.toSet
  }
}
