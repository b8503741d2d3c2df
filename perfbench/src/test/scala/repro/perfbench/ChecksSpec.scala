package repro.perfbench

import java.nio.file.Files

import org.scalatest.funsuite.AnyFunSuite

import repro.core.{CandidateGraph, CommunityAnalysis, SelectedGraph, StationSelection}
import repro.core.CommunityAnalysis.CommunityRow
import repro.data.{Cleaning, MobySynth}

/** The benchmark's output checks, fed a hand-built correct result and
  * deliberately broken copies of it. Needs no Spark.
  */
class ChecksSpec extends AnyFunSuite {

  private val c = MobySynth.counts(1.0)
  private val n = c.goodRentals

  private val report = Cleaning.Report(c.totalStations, c.goodStations, c.totalRentals,
                                       c.goodRentals, c.totalLocations, c.goodLocations)
  private val candidateStats = CandidateGraph.Stats(
    nNodes = 5, nStationNodes = 2, nCandidateNodes = 3, undirectedEdges = 6,
    undirectedEdgesNoLoops = 4, directedEdges = 9, directedEdgesNoLoops = 7, nTrips = n)

  // two fixed stations in the south, two selected candidates far from them
  // and from each other, one rejected low-degree candidate
  private val stations = Seq((53.30, -6.30), (53.30, -6.20))
  private def cand(id: Long, lat: Double, deg: Long, selected: Boolean) =
    StationSelection.Candidate(id, lat, -6.25, deg, if (selected) deg else 0, selected)
  private val selection = StationSelection.Result(Seq(
    cand(1000001, 53.35, 20, selected = true),
    cand(1000002, 53.40, 18, selected = true),
    cand(1000003, 53.3501, 5, selected = false)), degreeThreshold = 10)

  private val selectedStats = SelectedGraph.Stats(
    preExisting = SelectedGraph.GroupStats(2, n - 100, n - 120, 4, 4),
    selected = SelectedGraph.GroupStats(2, 100, 120, 3, 3),
    totalStations = 4, totalTrips = n, totalEdges = 7)

  // two communities, each one old and one new station; 100 trips go from
  // the first to the second and 50 back
  private val w1 = n / 2 - 100
  private val summary = CommunityAnalysis.Summary(Seq(
    CommunityRow(1, 1, 1, 2, within = w1, out = 100, in = 50),
    CommunityRow(2, 1, 1, 2, within = n - w1 - 150, out = 50, in = 100)), modularity = 0.3)

  private val ok = Checks.Outputs(1.0, 250.0, report, candidateStats, selection, stations,
                                  selectedStats, Seq(summary, summary, summary))

  test("a correct result passes every check") {
    assert(Checks.all(ok) === Nil)
  }

  test("one dropped trip is a failure") {
    val dropped = summary.copy(rows = summary.rows.updated(0,
      summary.rows.head.copy(within = w1 - 1)))
    val broken = ok.copy(communities = Seq(dropped, summary, summary))
    assert(Checks.tripsConserved(broken).exists(_.contains("Table IV within+out")))
    assert(Checks.all(broken).nonEmpty)

    val lostInTableII = ok.copy(candidate = candidateStats.copy(nTrips = n - 1))
    assert(Checks.all(lostInTableII).exists(_.contains("Table II trips")))
  }

  test("two selected candidates closer than minDistM are a failure") {
    val close = selection.copy(candidates = selection.candidates.map {
      case x if x.nodeId == 1000002 => x.copy(lat = 53.351) // ~110 m from 1000001
      case x => x
    })
    val broken = ok.copy(selection = close)
    assert(Checks.selectionRules(broken) ===
           Seq("candidates 1000001 and 1000002 closer than 250.0 m"))
    assert(Checks.all(broken).nonEmpty)
  }

  test("a selected candidate below the threshold or near a station is a failure") {
    val lowDegree = ok.copy(selection = selection.copy(degreeThreshold = 19))
    assert(Checks.all(lowDegree).exists(_.contains("degree 18 < threshold 19")))
    val nearStation = ok.copy(stations = stations :+ ((53.401, -6.25)))
    assert(Checks.all(nearStation).exists(_.contains("within 250.0 m of a fixed station")))
  }

  test("Table I off the generator's promise is a failure") {
    val broken = ok.copy(report = report.copy(cleanLocations = report.cleanLocations + 1))
    assert(Checks.all(broken).exists(_.startsWith("Table I clean locations")))
  }

  test("community station totals that differ from Table III are a failure") {
    val extra = summary.copy(rows = summary.rows :+ CommunityRow(3, 0, 1, 1, 0, 0, 0))
    val broken = ok.copy(communities = Seq(summary, summary, extra))
    assert(Checks.all(broken).exists(_.contains("Table VI new stations: 3 != Table III 2")))
  }

  test("a changed table digest is a failure") {
    val changed = ok.copy(communities = Seq(summary.copy(modularity = 0.5), summary, summary))
    val (d, d2) = (Checks.digest(ok), Checks.digest(changed))
    assert(d !== d2)
    assert(Checks.digestMatches(Some(d), d) === Nil)
    assert(Checks.digestMatches(Some(d), d2).nonEmpty)

    // across runs: the first digest recorded for a key is the reference
    val dir = Files.createTempDirectory("perfbench-state")
    val state = new State(Some(dir))
    assert(state.checkDigest("paper_sf1-7", d, 0) === Nil)
    assert(new State(Some(dir)).checkDigest("paper_sf1-7", d, 0) === Nil)
    assert(new State(Some(dir)).checkDigest("paper_sf1-7", d2, 0).nonEmpty)
    assert(new State(Some(dir)).checkDigest("paper_sf1-8", d2, 0) === Nil)
    assert(new State(Some(dir)).checkDigest("paper_sf1-7", d2, 1) === Nil)
    assert(new State(Some(dir)).checkDigest("paper_sf1-7", d, 1).nonEmpty)
  }

  test("largest proximity component") {
    assert(Layers.maxComponent(Array.empty) === 1)
    assert(Layers.maxComponent(Array((1L, 2L), (3L, 4L), (2L, 5L), (9L, 1L))) === 4)
  }

  test("Algorithm 1 funnel counts each rule's survivors") {
    assert(Workload.funnel(ok).toMap === Map(
      "select.threshold" -> 10.0, "select.candidates" -> 3.0, "select.pass_degree" -> 2.0,
      "select.pass_distance" -> 2.0, "select.selected" -> 2.0))
  }
}
