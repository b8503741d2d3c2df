package repro.perfbench

import java.nio.charset.StandardCharsets
import java.security.MessageDigest

import repro.core.{CandidateGraph, CommunityAnalysis, SelectedGraph, StationSelection}
import repro.data.{Cleaning, MobySynth}
import repro.geo.Haversine
import repro.report.PaperTables

/** Output checks run on every benchmark operation. Each check returns the
  * rules it found broken; an operation with any broken rule counts as
  * failed.
  *
  * None of the rules depend on the order in which the program visits
  * candidates, so a change of Algorithm 1's pruning order still passes.
  */
object Checks {

  /** Everything the checks read from one pipeline run.
    *
    * @param stations    (lat, lon) of every fixed station in the candidate graph
    * @param communities G_Basic, G_Day and G_Hour summaries, in that order
    */
  final case class Outputs(sf: Double, minDistM: Double, report: Cleaning.Report,
                           candidate: CandidateGraph.Stats, selection: StationSelection.Result,
                           stations: Seq[(Double, Double)], selected: SelectedGraph.Stats,
                           communities: Seq[CommunityAnalysis.Summary])

  /** Table I must equal the counts the generator promises for `sf`. */
  def tableI(o: Outputs): Seq[String] = {
    val c = MobySynth.counts(o.sf)
    val r = o.report
    Seq(
      "orig stations" -> (r.origStations, c.totalStations),
      "clean stations" -> (r.cleanStations, c.goodStations),
      "orig rentals" -> (r.origRentals, c.totalRentals),
      "clean rentals" -> (r.cleanRentals, c.goodRentals),
      "orig locations" -> (r.origLocations, c.totalLocations),
      "clean locations" -> (r.cleanLocations, c.goodLocations),
    ).collect { case (what, (got, want)) if got != want => s"Table I $what: $got != $want" }
  }

  /** Every cleaned rental survives as exactly one trip through Tables II–VI. */
  def tripsConserved(o: Outputs): Seq[String] = {
    val n = o.report.cleanRentals
    val s = o.selected
    val tables = Seq(
      "Table II trips" -> o.candidate.nTrips,
      "Table III total trips" -> s.totalTrips,
      "Table III trips from" -> (s.preExisting.tripsFrom + s.selected.tripsFrom),
      "Table III trips to" -> (s.preExisting.tripsTo + s.selected.tripsTo),
    ) ++ o.communities.zip(Roman).flatMap { case (c, t) =>
      Seq(s"Table $t within+out" -> c.rows.map(r => r.within + r.out).sum,
          s"Table $t within+in" -> c.rows.map(r => r.within + r.in).sum)
    }
    tables.collect { case (what, got) if got != n => s"$what: $got != $n cleaned rentals" }
  }

  /** Algorithm 1's rules hold for the selected set, whatever the order
    * in which candidates were pruned.
    */
  def selectionRules(o: Outputs): Seq[String] = {
    val sel = o.selection.selected
    val threshold = o.selection.degreeThreshold
    val degree = sel.filter(_.degree < threshold)
      .map(c => s"candidate ${c.nodeId} degree ${c.degree} < threshold $threshold")
    val nearStation = sel.filter { c =>
      o.stations.exists { case (la, lo) => Haversine.metres(c.lat, c.lon, la, lo) <= o.minDistM }
    }.map(c => s"candidate ${c.nodeId} within ${o.minDistM} m of a fixed station")
    val closePairs = for {
      (a, i) <- sel.zipWithIndex
      b <- sel.drop(i + 1)
      if Haversine.metres(a.lat, a.lon, b.lat, b.lon) < o.minDistM
    } yield s"candidates ${a.nodeId} and ${b.nodeId} closer than ${o.minDistM} m"
    val count =
      if (sel.size.toLong == o.selected.selected.stations) Nil
      else Seq(s"Table III selects ${o.selected.selected.stations}, Algorithm 1 ${sel.size}")
    degree ++ nearStation ++ closePairs ++ count
  }

  /** Each community table partitions Table III's stations. */
  def communityStations(o: Outputs): Seq[String] = {
    val s = o.selected
    o.communities.zip(Roman).flatMap { case (c, t) =>
      Seq(
        "old" -> (c.rows.map(_.oldStations).sum, s.preExisting.stations),
        "new" -> (c.rows.map(_.newStations).sum, s.selected.stations),
        "total" -> (c.rows.map(_.totalStations).sum, s.totalStations),
      ).collect { case (what, (got, want)) if got != want =>
        s"Table $t $what stations: $got != Table III $want"
      }
    }
  }

  def all(o: Outputs): Seq[String] =
    tableI(o) ++ tripsConserved(o) ++ selectionRules(o) ++ communityStations(o)

  /** A digest must equal the one recorded earlier for the same inputs. */
  def digestMatches(expected: Option[String], actual: String): Seq[String] =
    expected.filter(_ != actual).map(e => s"digest $actual != recorded $e").toSeq

  private val Roman = IndexedSeq("IV", "V", "VI")
  private val CommunityTables = Seq(
    ("TABLE IV — G_Basic", PaperTables.PaperBasic, PaperTables.PaperBasicRows),
    ("TABLE V — G_Day", PaperTables.PaperDay, PaperTables.PaperDayRows),
    ("TABLE VI — G_Hour", PaperTables.PaperHour, PaperTables.PaperHourRows))

  /** Tables I–VI exactly as the table jobs print them. */
  def render(o: Outputs): String =
    (Seq(PaperTables.tableI(o.report), PaperTables.tableII(o.candidate),
         PaperTables.tableIII(o.selected)) ++
      CommunityTables.zip(o.communities).map { case ((name, paper, rows), s) =>
        PaperTables.tableCommunity(name, paper, rows, s)
      }).mkString("\n\n")

  /** SHA-256 of the rendered tables, hex. */
  def digest(o: Outputs): String = sha256(render(o))

  private def sha256(s: String): String =
    MessageDigest.getInstance("SHA-256").digest(s.getBytes(StandardCharsets.UTF_8))
      .map(b => f"$b%02x").mkString
}
