package repro.core

/** A FIFO queue of ints in a ring buffer. Its capacity is a power of two
  * that starts small and doubles, so a query's queue costs what the query
  * enqueues, not n slots. Room is made by `reserve` before a batch of
  * `add`s, which keeps the growth path out of the callers' inner loops.
  */
private[core] final class IntFifo {
  private var buf = new Array[Int](16)
  private var head = 0
  private var count = 0

  def isEmpty: Boolean = count == 0

  def size: Int = count

  /** Make room for `k` more elements. */
  def reserve(k: Int): Unit =
    if (count + k > buf.length) {
      var cap = 2 * buf.length
      while (cap < count + k) cap *= 2
      val next = new Array[Int](cap)
      val first = math.min(count, buf.length - head)
      System.arraycopy(buf, head, next, 0, first)
      System.arraycopy(buf, 0, next, first, count - first)
      buf = next
      head = 0
    }

  /** Append `x`; a `reserve` must have made room for it. */
  def add(x: Int): Unit = {
    if (count == buf.length) throw new IllegalStateException("IntFifo is full: reserve room first")
    buf((head + count) & (buf.length - 1)) = x
    count += 1
  }

  /** Remove and return the oldest element; the queue must not be empty. */
  def poll(): Int = {
    val x = buf(head)
    head = (head + 1) & (buf.length - 1)
    count -= 1
    x
  }
}
