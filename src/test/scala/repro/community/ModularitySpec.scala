package repro.community

import repro.SparkSpec

/** Tests for the modularity metric (paper eq. 2). */
class ModularitySpec extends SparkSpec {

  // two triangles joined by a single edge: classic 2-community graph
  private val twoTriangles: Seq[(Long, Long, Double)] = Seq(
    (1L, 2L, 1.0), (1L, 3L, 1.0), (2L, 3L, 1.0),
    (4L, 5L, 1.0), (4L, 6L, 1.0), (5L, 6L, 1.0),
    (3L, 4L, 1.0))

  private val goodSplit = Map(1L -> 1L, 2L -> 1L, 3L -> 1L, 4L -> 2L, 5L -> 2L, 6L -> 2L)
  private val oneCommunity = (1L to 6L).map(_ -> 1L).toMap

  test("all nodes in one community gives Q = 0") {
    assert(math.abs(Modularity.local(twoTriangles, oneCommunity)) < 1e-12)
  }

  test("good split of two triangles has known modularity") {
    // m=7; in-community edges 3+3; Q = 6/7 - 2*(7/14)^2 = 6/7 - 1/2
    val q = Modularity.local(twoTriangles, goodSplit)
    assert(math.abs(q - (6.0 / 7 - 0.5)) < 1e-12, s"got $q")
  }

  test("every node its own community gives negative Q") {
    val singletons = (1L to 6L).map(v => v -> v).toMap
    assert(Modularity.local(twoTriangles, singletons) < 0)
  }

  test("modularity is invariant to community relabeling") {
    val relabeled = goodSplit.map { case (v, c) => v -> (c + 100) }
    assert(math.abs(
      Modularity.local(twoTriangles, goodSplit) -
      Modularity.local(twoTriangles, relabeled)) < 1e-12)
  }

  test("modularity is invariant to uniform weight scaling") {
    val scaled = twoTriangles.map { case (s, d, w) => (s, d, w * 10) }
    assert(math.abs(
      Modularity.local(twoTriangles, goodSplit) -
      Modularity.local(scaled, goodSplit)) < 1e-12)
  }

  test("self-loops contribute to their own community") {
    val withLoop = twoTriangles :+ (1L, 1L, 5.0)
    val q1 = Modularity.local(twoTriangles, goodSplit)
    val q2 = Modularity.local(withLoop, goodSplit)
    assert(q2 !== q1) // the loop changes m and degrees
    // heavy self-loops make the containing community more internal
    val heavy = twoTriangles :+ (1L, 1L, 100.0)
    assert(Modularity.local(heavy, goodSplit) > 0)
  }

  test("rejects directed (unordered) edge lists") {
    intercept[IllegalArgumentException] {
      Modularity.local(Seq((2L, 1L, 1.0)), Map(1L -> 1L, 2L -> 1L))
    }
  }

  test("empty-weight graph yields Q = 0") {
    assert(Modularity.local(Seq((1L, 2L, 0.0)), Map(1L -> 1L, 2L -> 2L)) === 0.0)
  }

  test("Q is within [-1, 1] on random graphs and random partitions") {
    val rnd = new scala.util.Random(3)
    (1 to 20).foreach { _ =>
      val n = 2 + rnd.nextInt(20)
      val edges = for {
        i <- 1L to n.toLong; j <- i to n.toLong
        if rnd.nextDouble() < 0.3
      } yield (i, j, 1.0 + rnd.nextInt(5).toDouble)
      if (edges.nonEmpty) {
        val comm = (1L to n.toLong).map(v => v -> (1L + rnd.nextInt(4)).toLong).toMap
        val q = Modularity.local(edges, comm)
        assert(q >= -1.0 - 1e-9 && q <= 1.0 + 1e-9, s"Q=$q out of range")
      }
    }
  }
}
