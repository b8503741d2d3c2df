package repro.core

import java.sql.Timestamp
import java.time.LocalDateTime

/** Hand-built [[TripGraph]]s for the specs, made without Spark. */
object TestGraphs {

  /** A trip starting `day` days (0 = Monday) and `hour` hours into the week
    * of Monday 2020-06-01, with the slices Spark takes in the JVM's time zone.
    */
  def trip(id: Long, src: Long, dst: Long, day: Int = 0, hour: Int = 10): TripGraph.Trip =
    TripGraph.Trip(id, src, dst, Timestamp.valueOf(LocalDateTime.of(2020, 6, 1 + day, hour, 0)),
                   day, hour)

  /** Nodes (node_id, lat, lon, is_station) and trips, in the order given. */
  def graph(nodes: Seq[(Long, Double, Double, Boolean)], trips: Seq[TripGraph.Trip]): TripGraph =
    TripGraph(nodes.map { case (id, la, lo, st) => TripGraph.Node(id, la, lo, st) }.toArray,
              trips.toArray)
}
