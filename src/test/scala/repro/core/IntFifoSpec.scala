package repro.core

import org.scalatest.funsuite.AnyFunSuite

class IntFifoSpec extends AnyFunSuite {

  test("keeps FIFO order across growth while the ring is wrapped") {
    val q = new IntFifo
    val ref = scala.collection.mutable.Queue.empty[Int]
    val rnd = new scala.util.Random(3)
    var next = 0
    for (_ <- 0 until 2000) {
      // batches larger than the 16 initial slots, so growth happens with head > 0
      val k = rnd.nextInt(40)
      q.reserve(k)
      for (_ <- 0 until k) { q.add(next); ref.enqueue(next); next += 1 }
      for (_ <- 0 until rnd.nextInt(45) if !q.isEmpty) assert(q.poll() == ref.dequeue())
    }
    while (!q.isEmpty) assert(q.poll() == ref.dequeue())
    assert(ref.isEmpty)
  }

  test("add without reserved room fails loudly") {
    val q = new IntFifo
    q.reserve(1)
    q.add(1)
    intercept[IllegalStateException] {
      (2 to 17).foreach(q.add)
    }
  }
}
