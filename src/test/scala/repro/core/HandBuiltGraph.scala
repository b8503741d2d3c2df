package repro.core

import org.apache.spark.sql.SparkSession

/** A candidate graph small enough to count Tables II and III by hand.
  *
  * Stations 1 and 2; candidate A is selected, candidate B is rejected and
  * lies ~40 m from station 2, so its one trip is redirected there. The
  * trips hold a repeated directed pair (1→2 twice), its reverse (2→1) and
  * a self-loop (1→1).
  */
object HandBuiltGraph {
  val A = CandidateGraph.CandidateOffset + 1
  val B = CandidateGraph.CandidateOffset + 2

  // (rental_id, src_node, dst_node); trip 6 is B→A, redirected to 2→A
  val trips: Seq[(Long, Long, Long)] = Seq(
    (1L, 1L, 2L), (2L, 1L, 2L), (3L, 2L, 1L), (4L, 1L, 1L),
    (5L, A, 1L), (6L, B, A), (7L, 2L, A))

  private val coords = Seq((1L, 53.340, -6.260), (2L, 53.350, -6.260),
                           (A, 53.345, -6.250), (B, 53.3502, -6.2605))

  val selection: StationSelection.Result = StationSelection.Result(Seq(
    StationSelection.Candidate(A, 53.345, -6.250, degree = 3, score = 3, selected = true),
    StationSelection.Candidate(B, 53.3502, -6.2605, degree = 1, score = 0, selected = false)),
    degreeThreshold = 2)

  def candidate(spark: SparkSession): CandidateGraph.Result = {
    import spark.implicits._
    CandidateGraph.Result(
      TestGraphs.graph(
        coords.map { case (id, la, lo) => (id, la, lo, id < CandidateGraph.CandidateOffset) },
        trips.map { case (id, s, d) => TestGraphs.trip(id, s, d) }),
      assignment = Seq.empty[(Long, Long)].toDF("location_id", "node_id"))
  }
}
