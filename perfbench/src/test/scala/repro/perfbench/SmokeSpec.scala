package repro.perfbench

import java.nio.file.{Files, Paths}

import scala.jdk.CollectionConverters._

import com.fasterxml.jackson.databind.{JsonNode, ObjectMapper}
import org.apache.spark.sql.SparkSession
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite

/** Fast end-to-end runs of the `small_sf0.05` workload, untraced and
  * traced. They check the result line's format against BENCHMARK.json.
  */
class SmokeSpec extends AnyFunSuite with BeforeAndAfterAll {

  private lazy val spark: SparkSession = Main.session()
  override def afterAll(): Unit = spark.stop()

  private val state = Files.createTempDirectory("perfbench-smoke")
  private val small = Workload.all.find(_.name == "small_sf0.05").get
  private val mapper = new ObjectMapper()

  /** Metric names and units of one list in BENCHMARK.json. */
  private def declared(list: String): Seq[(String, String)] =
    Seq(Paths.get("BENCHMARK.json"), Paths.get("..", "BENCHMARK.json")).find(Files.exists(_))
      .map(f => mapper.readTree(f.toFile).get(list).elements().asScala.toSeq
        .map(m => m.get("name").asText -> m.get("unit").asText))
      .getOrElse(fail("BENCHMARK.json not found"))

  private def run(trace: Boolean): JsonNode = {
    val args = Main.Args(small, seed = 7, seconds = 1, trace = trace, Some(state))
    val result = Main.runPipeline(spark, args, small, setupS = 1.0)
    assert(result.failures === Nil)
    val json = mapper.readTree(Main.resultLine(result))
    assert(json.fieldNames().asScala.toSeq === Seq("correct", "attempted", "failed", "metrics"))
    assert(json.get("correct").asBoolean)
    assert(json.get("attempted").asInt >= 1)
    assert(json.get("failed").asInt === 0)
    json.get("metrics")
  }

  private def units(metrics: JsonNode): Seq[(String, String)] =
    metrics.properties().asScala.toSeq.map(e => e.getKey -> e.getValue.get("unit").asText)

  test("untraced: every end-to-end metric by name and unit, none 0") {
    val metrics = run(trace = false)
    assert(units(metrics).toSet === declared("end_to_end").toSet)
    metrics.elements().asScala.foreach(m => assert(m.get("value").asDouble > 0))
  }

  test("traced: every per-layer metric; spans cover the operation") {
    val metrics = run(trace = true)
    assert(units(metrics) === PerLayer.names)
    assert(PerLayer.names.toSet === declared("per_layer").toSet)
    def v(k: String) = metrics.get(k).get("value").asDouble
    assert(v("trace.coverage") >= Main.MinCoverage)
    Layers.Granularities.foreach { case (_, g) => assert(v(s"community.louvain.$g.wall_s") > 0) }
    assert(v("data.generate.spark_jobs") > 0)
    assert(v("core.summarize.hour.spark_jobs") > 0)
    assert(v("select.selected") > 0 && v("cluster.clusters") > 0)
  }
}
