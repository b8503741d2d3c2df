package repro.core

import repro.SparkSpec

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

  test("pipeline is deterministic end to end") {
    val res2 = Pipeline.run(spark, cfg)
    assert(res2.selection.selected.map(_.nodeId) === res.selection.selected.map(_.nodeId))
    val basic2 = Pipeline.communities(spark, res2.selected, TemporalGraphs.TNull)
    assert(basic2.summary.rows === basic.summary.rows)
    assert(basic2.summary.modularity === basic.summary.modularity)
  }

  test("selected graph has fewer nodes than candidate graph (complexity reduction)") {
    assert(res.selected.stats.totalStations < res.candidate.stats.nNodes)
  }
}
