package repro.core

import java.sql.Timestamp
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.col
import repro.core.TemporalGraphs.{Granularity, TDay, THour, TNull, sliceCol}

/** The graph after HAC, held on the driver: ~1.1 k nodes and ~62 k trips
  * at sf=1. Selection, redirection, Tables II–VI, the co-activity weights
  * and the Louvain input are plain Scala over it, and none of them depends
  * on the order of the arrays. Each trip carries its T_Day and T_Hour slices.
  */
final case class TripGraph(nodes: Array[TripGraph.Node], trips: Array[TripGraph.Trip]) {

  /** Trips from + trips to each node that has any (a self-loop counts twice). */
  def degrees: Map[Long, Long] =
    trips.flatMap(t => Seq(t.src, t.dst)).groupMapReduce(identity)(_ => 1L)(_ + _)

  /** node_id, lat, lon, is_station */
  def nodesDF: DataFrame =
    SparkSession.active.createDataFrame(nodes.toSeq).toDF("node_id", "lat", "lon", "is_station")

  /** rental_id, src_node, dst_node, start_ts */
  def tripsDF: DataFrame =
    SparkSession.active.createDataFrame(trips.toSeq.map(t => (t.rentalId, t.src, t.dst, t.startTs)))
      .toDF("rental_id", "src_node", "dst_node", "start_ts")
}

object TripGraph {

  final case class Node(id: Long, lat: Double, lon: Double, isStation: Boolean)

  final case class Trip(rentalId: Long, src: Long, dst: Long, startTs: Timestamp,
                        day: Int, hour: Int) {
    def slice(g: Granularity): Int = g match { case TNull => 0; case TDay => day; case THour => hour }
  }

  /** Collects trips (rental_id, src_node, dst_node, start_ts) with their
    * slices, which Spark takes in its session time zone, by rental id.
    */
  def collectTrips(trips: DataFrame): Array[Trip] = {
    val ts = col("start_ts")
    trips.select(col("rental_id").cast("long"), col("src_node").cast("long"),
                 col("dst_node").cast("long"), ts, sliceCol(TDay, ts), sliceCol(THour, ts))
      .collect()
      .map(r => Trip(r.getLong(0), r.getLong(1), r.getLong(2), r.getTimestamp(3),
                     r.getInt(4), r.getInt(5)))
      .sortBy(_.rentalId)
  }
}
