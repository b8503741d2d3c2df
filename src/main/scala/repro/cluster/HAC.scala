package repro.cluster

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.geo.Haversine

/** Complete-linkage hierarchical agglomerative clustering with a diameter
  * cut (the paper's §IV-A graph-construction step), run on the driver.
  *
  * Exactness at scale: under complete linkage with cut `cutM`, no cluster
  * may contain two points further than `cutM` apart, so clusters can never
  * span two connected components of the "within cutM" proximity graph.
  * We therefore:
  *
  *   1. build ≤`cutM` neighbour pairs with [[SpatialGrid]];
  *   2. partition points into proximity components by union-find over
  *      those pairs;
  *   3. run *exact* complete-linkage HAC independently inside each
  *      component (packed distance matrix, O(k²) memory per component);
  *   4. optionally enforce the paper's Rule 2 (cluster centroids >= 50 m
  *      apart) by iteratively merging the closest centroid pair below the
  *      threshold (cluster count is ~1k).
  *
  * Cluster ids are the minimum member point id — stable and deterministic.
  */
object HAC {

  /** One cluster centroid. */
  final case class Centroid(cluster_id: Long, c_lat: Double, c_lon: Double, n_points: Long)

  final case class Result(assignment: DataFrame, centroids: DataFrame)

  /** Exact complete-linkage agglomeration with diameter cut, on one
    * component. Input arrays are parallel (ids, lats, lons); returns the
    * cluster label (index into [0, nClusters)) per point.
    *
    * Classic nearest-neighbour agglomeration over a packed distance
    * matrix; complete linkage is monotone, so greedily merging the global
    * minimum until it exceeds `cutM` is exactly the dendrogram cut.
    */
  private[cluster] def localCompleteLinkage(
      ids: Array[Long], lats: Array[Double], lons: Array[Double], cutM: Double): Array[Int] = {
    val n = ids.length
    require(n <= 30000, s"HAC component too large: $n points")
    if (n == 1) return Array(0)

    // packed upper-triangular complete-linkage distance matrix
    val d = new Array[Double](n * (n - 1) / 2)
    @inline def ix(i: Int, j: Int): Int = {
      val (a, b) = if (i < j) (i, j) else (j, i)
      a * n - a * (a + 1) / 2 + (b - a - 1)
    }
    var i = 0
    while (i < n) {
      var j = i + 1
      while (j < n) {
        d(ix(i, j)) = Haversine.metres(lats(i), lons(i), lats(j), lons(j))
        j += 1
      }
      i += 1
    }

    val active = Array.fill(n)(true)
    val parent = Array.tabulate(n)(identity) // representative merge target
    val nn = new Array[Int](n)
    val nnd = new Array[Double](n)

    def rescan(k: Int): Unit = {
      var best = -1; var bestD = Double.MaxValue
      var j = 0
      while (j < n) {
        if (j != k && active(j)) {
          val dd = d(ix(k, j))
          if (dd < bestD || (dd == bestD && (best == -1 || j < best))) { bestD = dd; best = j }
        }
        j += 1
      }
      nn(k) = best; nnd(k) = bestD
    }
    i = 0
    while (i < n) { rescan(i); i += 1 }

    var nActive = n
    var continue = true
    while (continue && nActive > 1) {
      var a = -1; var bestD = Double.MaxValue
      var k = 0
      while (k < n) {
        if (active(k) && (nnd(k) < bestD || (nnd(k) == bestD && (a == -1 || k < a)))) {
          bestD = nnd(k); a = k
        }
        k += 1
      }
      if (bestD > cutM) continue = false
      else {
        val b = nn(a)
        val (lo, hi) = if (a < b) (a, b) else (b, a)
        // merge hi into lo: complete linkage takes the max distance
        var j = 0
        while (j < n) {
          if (active(j) && j != lo && j != hi)
            d(ix(lo, j)) = math.max(d(ix(lo, j)), d(ix(hi, j)))
          j += 1
        }
        active(hi) = false; parent(hi) = lo; nActive -= 1
        if (nActive > 1) {
          rescan(lo)
          // distances to lo only grew and hi vanished: refresh anyone
          // whose cached nearest neighbour was lo or hi
          j = 0
          while (j < n) {
            if (active(j) && j != lo && (nn(j) == lo || nn(j) == hi)) rescan(j)
            j += 1
          }
        }
      }
    }

    def root(k: Int): Int = { var r = k; while (parent(r) != r) r = parent(r); r }
    val labelOf = scala.collection.mutable.HashMap.empty[Int, Int]
    Array.tabulate(n) { k => labelOf.getOrElseUpdate(root(k), labelOf.size) }
  }

  /** Cluster `points` (id, lat, lon) with complete linkage and diameter
    * cut `cutM`; if `minCentroidSepM` > 0, post-merge clusters whose
    * centroids are closer than that (paper Rule 2). Returns every point's
    * (id, cluster_id) in ascending id order, and the centroids in ascending
    * cluster id order. The result does not depend on the input order.
    */
  def clusterPoints(points: Array[(Long, Double, Double)], cutM: Double,
                    minCentroidSepM: Double = 0.0): (Array[(Long, Long)], Seq[Centroid]) = {
    val pts = points.sortBy(_._1)
    val (ids, lats, lons) = (pts.map(_._1), pts.map(_._2), pts.map(_._3))

    // proximity components: union-find over the <= cutM pairs
    val comp = Array.range(0, pts.length)
    def root(k: Int): Int = { var r = k; while (comp(r) != r) r = comp(r); comp(k) = r; r }
    for ((i, j, _) <- SpatialGrid.pairs(lats, lons, cutM)) {
      val (ri, rj) = (root(i), root(j))
      if (ri != rj) comp(ri max rj) = ri min rj
    }

    // exact HAC per component, members in ascending id order; a cluster's
    // id is its smallest member id
    val clusterOf = new Array[Long](pts.length)
    for (members <- pts.indices.groupBy(root).values) {
      val m = members.toArray
      val labels = localCompleteLinkage(m.map(ids), m.map(lats), m.map(lons), cutM)
      for (ks <- m.indices.groupBy(labels).values; k <- ks) clusterOf(m(k)) = ids(m(ks.head))
    }

    // centroid = member mean, summed in ascending id order
    val cs = pts.indices.groupBy(clusterOf).toSeq.sortBy(_._1).map { case (cid, ks) =>
      Centroid(cid, ks.map(lats).sum / ks.size, ks.map(lons).sum / ks.size, ks.size)
    }.toBuffer

    // Rule 2: merge the closest centroid pair below minCentroidSepM until
    // none is left; O(k²) scans per merge are cheap at ~1k clusters
    val mergedInto = scala.collection.mutable.HashMap.empty[Long, Long]
    var done = minCentroidSepM <= 0
    while (!done) {
      var bi = -1; var bj = -1; var bd = Double.MaxValue
      var i = 0
      while (i < cs.size) {
        var j = i + 1
        while (j < cs.size) {
          val dd = Haversine.metres(cs(i).c_lat, cs(i).c_lon, cs(j).c_lat, cs(j).c_lon)
          if (dd < minCentroidSepM && dd < bd) { bd = dd; bi = i; bj = j }
          j += 1
        }
        i += 1
      }
      if (bi < 0) done = true
      else {
        // cs stays sorted by id, so keep has the smaller id and keeps it
        val (keep, drop) = (cs(bi), cs(bj))
        val tot = keep.n_points + drop.n_points
        cs(bi) = Centroid(keep.cluster_id,
          (keep.c_lat * keep.n_points + drop.c_lat * drop.n_points) / tot,
          (keep.c_lon * keep.n_points + drop.c_lon * drop.n_points) / tot, tot)
        cs.remove(bj)
        mergedInto(drop.cluster_id) = keep.cluster_id
      }
    }
    def merged(c: Long): Long = mergedInto.get(c).fold(c)(merged)
    (ids.zip(clusterOf.map(merged)), cs.toSeq)
  }

  /** [[clusterPoints]] over a DataFrame (id, lat, lon), for perfbench's
    * probes and the specs: assignment (id, cluster_id) and centroids.
    */
  def cluster(spark: SparkSession, points: DataFrame, cutM: Double,
              minCentroidSepM: Double = 0.0): Result = {
    import spark.implicits._
    val (assignment, centroids) = clusterPoints(SpatialGrid.collect(points), cutM, minCentroidSepM)
    Result(assignment.toSeq.toDF("id", "cluster_id"), centroids.toDF())
  }
}
