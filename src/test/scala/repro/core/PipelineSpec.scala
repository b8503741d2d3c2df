package repro.core

import scala.collection.mutable
import repro.SparkSpec
import repro.community.Louvain
import repro.report.PaperTables

/** End-to-end integration tests at small scale: the full paper pipeline
  * from synthesis through community detection, checking the qualitative
  * claims the evaluation section rests on.
  */
class PipelineSpec extends SparkSpec {

  private lazy val cfg = Pipeline.Config(sf = repro.TestFixtures.sf, seed = repro.TestFixtures.seed)
  private case class Res(report: repro.data.Cleaning.Report, candidate: CandidateGraph.Result,
                         selection: StationSelection.Result, selected: SelectedGraph.Result)
  private lazy val res = Res(repro.TestFixtures.report, repro.TestFixtures.candidate,
                             repro.TestFixtures.selection, repro.TestFixtures.selected)
  private lazy val basic = repro.TestFixtures.basic
  private lazy val day = repro.TestFixtures.day
  private lazy val hourly = repro.TestFixtures.hourly

  test("pipeline preserves trip counts end to end") {
    assert(res.report.cleanRentals === res.candidate.stats.nTrips)
    assert(res.selected.stats.totalTrips === res.report.cleanRentals)
  }

  test("network expansion: new stations are added but bounded") {
    val nNew = res.selection.selected.size
    val nOld = res.report.cleanStations
    assert(nNew > 0, "no expansion")
    assert(nNew < res.selection.candidates.size, "unbounded expansion")
    assert(res.selected.stats.totalStations === nOld + nNew)
  }

  test("all stations are covered by communities at every granularity") {
    for (s <- Seq(basic, day, hourly)) {
      assert(s.summary.rows.map(_.totalStations).sum === res.selected.stats.totalStations)
    }
  }

  test("community trips are conserved at every granularity") {
    for (s <- Seq(basic, day, hourly)) {
      val within = s.summary.rows.map(_.within).sum
      val out = s.summary.rows.map(_.out).sum
      assert(within + out === res.selected.stats.totalTrips)
    }
  }

  test("G_Basic communities are non-trivial with positive modularity") {
    assert(basic.summary.nCommunities >= 2)
    assert(basic.summary.modularity > 0.1)
  }

  test("communities are largely self-contained (paper: ~74%)") {
    val sc = basic.summary.selfContainment
    assert(sc > 0.55, s"self-containment $sc")
  }

  test("finer temporal granularity yields at least as many communities") {
    assert(day.summary.nCommunities >= basic.summary.nCommunities)
    assert(hourly.summary.nCommunities >= basic.summary.nCommunities)
  }

  test("temporal granularity raises modularity (paper: 0.25 -> 0.32 -> 0.54)") {
    assert(day.summary.modularity > basic.summary.modularity - 0.02)
    assert(hourly.summary.modularity > basic.summary.modularity)
  }

  private def tables(report: repro.data.Cleaning.Report, candidate: CandidateGraph.Result,
                     selected: SelectedGraph.Result,
                     communities: Seq[Pipeline.CommunityResult]): Seq[String] = {
    import PaperTables._
    Seq(tableI(report), tableII(candidate.stats), tableIII(selected.stats)) ++
      communities.zip(Seq(("IV", PaperBasic, PaperBasicRows), ("V", PaperDay, PaperDayRows),
                          ("VI", PaperHour, PaperHourRows))).map {
        case (c, (name, paper, rows)) => tableCommunity(s"TABLE $name", paper, rows, c.summary)
      }
  }

  test("pipeline is deterministic end to end") {
    // the fixtures run at the suite's shuffle-partition count; the second
    // run at 64 must render the same Tables I-VI, Q included
    val first = tables(res.report, res.candidate, res.selected, Seq(basic, day, hourly))
    val key = "spark.sql.shuffle.partitions"
    val suitePartitions = spark.conf.get(key)
    val (res2, second) = try {
      spark.conf.set(key, "64")
      val r = Pipeline.run(spark, cfg)
      (r, tables(r.report, r.candidate, r.selected,
                 Seq(TemporalGraphs.TNull, TemporalGraphs.TDay, TemporalGraphs.THour)
                   .map(Pipeline.communities(spark, r.selected, _))))
    } finally spark.conf.set(key, suitePartitions)
    assert(res2.selection.selected.map(_.nodeId) === res.selection.selected.map(_.nodeId))
    assert(second === first)
  }

  test("every Louvain community induces a connected subgraph at every granularity") {
    for (g <- Seq(TemporalGraphs.TNull, TemporalGraphs.TDay, TemporalGraphs.THour)) {
      val edges = TemporalGraphs.weights(res.selected.graph, g)
      val community = Louvain.run(edges).community
      val adj = edges.collect { case (s, d, _) if s != d && community(s) == community(d) =>
        Seq(s -> d, d -> s) }.flatten.groupMap(_._1)(_._2)
      for ((c, members) <- community.groupMap(_._2)(_._1)) {
        val seen = mutable.Set(members.head)
        var frontier = List(members.head)
        while (frontier.nonEmpty) {
          val v = frontier.head
          frontier = frontier.tail
          for (u <- adj.getOrElse(v, Nil) if seen.add(u)) frontier ::= u
        }
        assert(seen.size === members.size, s"${g.name} community $c is disconnected")
      }
    }
  }

  test("selected graph has fewer nodes than candidate graph (complexity reduction)") {
    assert(res.selected.stats.totalStations < res.candidate.stats.nNodes)
  }
}
