package repro.core

import org.apache.spark.sql.SparkSession
import scala.collection.mutable

/** Community summary tables (paper Tables IV, V, VI): per community the
  * number of old (pre-existing) and new (selected) stations, and the
  * trips that stay inside it (within), leave it (out) or enter it (in).
  */
object CommunityAnalysis {

  final case class CommunityRow(communityId: Long, oldStations: Long, newStations: Long,
                                totalStations: Long, within: Long, out: Long, in: Long) {
    def total: Long = within + out + in
  }

  final case class Summary(rows: Seq[CommunityRow], modularity: Double) {
    def nCommunities: Int = rows.size
    /** Fraction of all trips that start and end in the same community. */
    def selfContainment: Double = {
      val within = rows.map(_.within).sum.toDouble
      val all = within + rows.map(_.out).sum
      if (all == 0) 0.0 else within / all
    }
  }

  /** Build the summary from a node->community assignment.
    *
    * Community ids are renumbered 1..K by descending total station count
    * then ascending raw community id, mirroring the paper's table layout.
    * Nodes, and trips with an endpoint, missing from `community` are left
    * out; a community appears iff at least one node maps to it.
    */
  def summarize(spark: SparkSession, selected: SelectedGraph.Result,
                community: Map[Long, Long], modularity: Double): Summary = {
    val within, out, in = mutable.Map.empty[Long, Long].withDefaultValue(0L)
    for (t <- selected.graph.trips; cs <- community.get(t.src); cd <- community.get(t.dst)) {
      if (cs == cd) within(cs) += 1
      else { out(cs) += 1; in(cd) += 1 }
    }
    val stations = selected.graph.nodes
      .flatMap(n => community.get(n.id).map(_ -> !n.isStation))
      .groupMapReduce(_._1) { case (_, isNew) => if (isNew) (0L, 1L) else (1L, 0L) } {
        case ((o1, n1), (o2, n2)) => (o1 + o2, n1 + n2)
      }
    val rows = stations.toSeq
      .sortBy { case (c, (oldSt, newSt)) => (-(oldSt + newSt), c) }
      .zipWithIndex.map { case ((c, (oldSt, newSt)), i) =>
        CommunityRow(i + 1L, oldSt, newSt, oldSt + newSt, within(c), out(c), in(c))
      }
    Summary(rows, modularity)
  }
}
