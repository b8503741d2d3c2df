package repro

import org.scalacheck.{Prop, Test}
import org.scalacheck.rng.Seed
import org.scalatest.Assertions.assert

/** Runs a ScalaCheck property inside a ScalaTest test. The seed is fixed,
  * so every run checks the same cases and a failure reproduces.
  */
object Props {
  def check(p: Prop, minSuccessful: Int = 100): Unit = {
    val params = Test.Parameters.default
      .withMinSuccessfulTests(minSuccessful).withInitialSeed(Seed(7L))
    val res = Test.check(params, p)
    assert(res.passed, res.status)
  }
}
