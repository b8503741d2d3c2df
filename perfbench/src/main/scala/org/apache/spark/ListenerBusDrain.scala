package org.apache.spark

/** Blocks until every event posted so far has reached every listener.
  * The listener bus is asynchronous and its drain is package-private,
  * hence this one-line bridge in Spark's package.
  */
object ListenerBusDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
