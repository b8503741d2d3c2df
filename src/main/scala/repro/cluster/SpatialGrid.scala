package repro.cluster

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.col
import repro.geo.Haversine

/** Grid blocking for neighbour-pair generation.
  *
  * Points are bucketed into cells a little wider than `thresholdM` metres
  * (in an equirectangular projection). Any two points within `thresholdM`
  * of each other land in the same or adjacent cells, so probing each
  * point's 3×3 cell neighbourhood in a hash map of cells yields a superset
  * of the true neighbour pairs, which a final Haversine filter trims
  * exactly. This keeps HAC pair generation O(n · density) instead of O(n²).
  */
object SpatialGrid {

  /** Degrees of latitude and of longitude per cell for points at latitudes
    * up to `maxAbsLat`. Cells are 0.1 % wider than `thresholdM`, and the
    * longitude scale is taken at the whole degree above `maxAbsLat`, where
    * a degree of longitude is shorter than anywhere in the data; so a pair
    * within `thresholdM` is never two cells apart, whatever the rounding.
    */
  def cellDegrees(maxAbsLat: Double, thresholdM: Double): (Double, Double) = {
    val side = thresholdM * 1.001
    (side / Haversine.MetresPerDegLat, side / Haversine.metresPerDegLon(math.ceil(maxAbsLat)))
  }

  /** (id, lat, lon) of every row of `df`, the id read from `idCol`. */
  def collect(df: DataFrame, idCol: String = "id"): Array[(Long, Double, Double)] =
    df.select(col(idCol).cast("long"), col("lat").cast("double"), col("lon").cast("double"))
      .collect().map(r => (r.getLong(0), r.getDouble(1), r.getDouble(2)))

  /** All index pairs (i, j), i < j, of the parallel arrays `lats`, `lons`
    * whose Haversine distance is <= thresholdM, with that distance.
    */
  def pairs(lats: Array[Double], lons: Array[Double], thresholdM: Double): Array[(Int, Int, Double)] = {
    val (dLat, dLon) = cellDegrees(lats.foldLeft(0.0)(_ max _.abs), thresholdM)
    def cell(i: Int): (Long, Long) = (math.floor(lats(i) / dLat).toLong, math.floor(lons(i) / dLon).toLong)
    val cells = lats.indices.groupBy(cell)
    val out = Array.newBuilder[(Int, Int, Double)]
    for (i <- lats.indices) {
      val (cy, cx) = cell(i)
      for (dy <- -1 to 1; dx <- -1 to 1; j <- cells.getOrElse((cy + dy, cx + dx), Nil) if j > i) {
        val d = Haversine.metres(lats(i), lons(i), lats(j), lons(j))
        if (d <= thresholdM) out += ((i, j, d))
      }
    }
    out.result()
  }

  /** [[pairs]] of `points` (id, lat, lon) as a DataFrame id_a, id_b,
    * dist_m (id_a < id_b), for perfbench's probes and the specs.
    */
  def neighbourPairs(spark: SparkSession, points: DataFrame, thresholdM: Double): DataFrame = {
    import spark.implicits._
    val pts = collect(points)
    pairs(pts.map(_._2), pts.map(_._3), thresholdM).toSeq.map { case (i, j, d) =>
      val (a, b) = (pts(i)._1, pts(j)._1)
      (a min b, a max b, d)
    }.toDF("id_a", "id_b", "dist_m")
  }
}
