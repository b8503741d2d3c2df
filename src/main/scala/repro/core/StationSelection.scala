package repro.core

import org.apache.spark.sql.SparkSession
import repro.geo.Haversine

/** The paper's Algorithm 1 — station ranking and selection.
  *
  * Degree of a node = number of trips starting there + number ending
  * there (a round trip contributes to both sides). The selection rules:
  *
  *   - Rule 3 (degree threshold): a candidate scores 0 if its degree is
  *     below the minimum fixed-station degree;
  *   - Rule 4 (secondary distance): a candidate scores 0 if its centroid
  *     is within `minDistM` (250 m) of a fixed station;
  *   - pairwise pruning: while any two surviving candidates are within
  *     `minDistM` of each other, the lower-degree one is zeroed;
  *   - survivors, ranked by score descending, become new stations.
  *
  * Degrees and the rule loop are plain Scala over the candidate
  * [[TripGraph]] (≈1k nodes at sf=1).
  */
object StationSelection {

  final case class Candidate(nodeId: Long, lat: Double, lon: Double,
                             degree: Long, score: Long, selected: Boolean)

  final case class Result(candidates: Seq[Candidate], degreeThreshold: Long) {
    def selected: Seq[Candidate] = candidates.filter(_.selected)
  }

  def select(spark: SparkSession, candidate: CandidateGraph.Result,
             minDistM: Double = 250.0): Result = {
    val graph = candidate.graph
    val degree = graph.degrees.withDefaultValue(0L)

    val stations = graph.nodes.filter(_.isStation)
    require(stations.nonEmpty, "no fixed stations")
    val threshold = stations.map(s => degree(s.id)).min

    final case class C(id: Long, lat: Double, lon: Double, deg: Long, var score: Long)
    // the pruning loop below depends on the scan order, so fix it to ascending id
    val cands = graph.nodes.filterNot(_.isStation).sortBy(_.id)
      .map(n => C(n.id, n.lat, n.lon, degree(n.id), degree(n.id)))

    // Rules 3 and 4
    for (c <- cands) {
      if (c.deg < threshold) c.score = 0
      else {
        val dMin = stations.iterator
          .map(s => Haversine.metres(c.lat, c.lon, s.lat, s.lon)).min
        if (dMin <= minDistM) c.score = 0
      }
    }

    // pairwise pruning until no two positive-score candidates are close
    var changed = true
    while (changed) {
      changed = false
      val alive = cands.filter(_.score > 0)
      var i = 0
      while (i < alive.length) {
        var j = i + 1
        while (j < alive.length) {
          val a = alive(i); val b = alive(j)
          if (a.score > 0 && b.score > 0 &&
              Haversine.metres(a.lat, a.lon, b.lat, b.lon) < minDistM) {
            // zero the lower-degree station; break id ties deterministically
            val loser = if (a.deg < b.deg || (a.deg == b.deg && a.id > b.id)) a else b
            loser.score = 0
            changed = true
          }
          j += 1
        }
        i += 1
      }
    }

    val out = cands.sortBy(c => (-c.score, c.id))
      .map(c => Candidate(c.id, c.lat, c.lon, c.deg, c.score, c.score > 0))
    Result(out.toSeq, threshold)
  }
}
