package repro.geo

/** Haversine geodesic distance (paper eq. 1).
  *
  * The paper uses the haversine formula because it "remains accurate for
  * computations at small distances" (their locations are metres apart),
  * unlike the spherical law of cosines. All distances in this repo are in
  * **metres** unless a name says otherwise.
  */
object Haversine {

  /** Mean Earth radius in metres (IUGG). */
  val EarthRadiusM: Double = 6371008.8

  /** Great-circle distance in metres between (lat1, lon1) and (lat2, lon2),
    * all in decimal degrees.
    */
  def metres(lat1: Double, lon1: Double, lat2: Double, lon2: Double): Double = {
    val phi1 = math.toRadians(lat1)
    val phi2 = math.toRadians(lat2)
    val dPhi = math.toRadians(lat2 - lat1)
    val dLam = math.toRadians(lon2 - lon1)
    val a = math.pow(math.sin(dPhi / 2), 2) +
      math.cos(phi1) * math.cos(phi2) * math.pow(math.sin(dLam / 2), 2)
    // clamp guards against rounding pushing a slightly above 1 for antipodes
    2 * EarthRadiusM * math.asin(math.sqrt(math.min(1.0, a)))
  }

  /** Metres of one degree of latitude (constant on the sphere). */
  val MetresPerDegLat: Double = math.Pi * EarthRadiusM / 180.0

  /** Metres of one degree of longitude at the given latitude. */
  def metresPerDegLon(latDeg: Double): Double =
    MetresPerDegLat * math.cos(math.toRadians(latDeg))
}
