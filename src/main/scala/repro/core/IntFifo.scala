package repro.core

/** A FIFO queue of ints in a ring buffer. Its capacity is a power of two
  * that starts small and doubles, so a query's queue costs what the query
  * enqueues, not n slots. Room is made by `reserve` before a batch of
  * `add`s, which keeps the growth path out of the callers' inner loops.
  */
private[core] final class IntFifo {
  private var buf = new Array[Int](16)
  private var head = 0
  private var size = 0

  def isEmpty: Boolean = size == 0

  /** Make room for `k` more elements. */
  def reserve(k: Int): Unit =
    if (size + k > buf.length) {
      var cap = 2 * buf.length
      while (cap < size + k) cap *= 2
      val next = new Array[Int](cap)
      val first = math.min(size, buf.length - head)
      System.arraycopy(buf, head, next, 0, first)
      System.arraycopy(buf, 0, next, first, size - first)
      buf = next
      head = 0
    }

  /** Append `x`; a `reserve` must have made room for it. */
  def add(x: Int): Unit = {
    if (size == buf.length) throw new IllegalStateException("IntFifo is full: reserve room first")
    buf((head + size) & (buf.length - 1)) = x
    size += 1
  }

  /** Remove and return the oldest element; the queue must not be empty. */
  def poll(): Int = {
    val x = buf(head)
    head = (head + 1) & (buf.length - 1)
    size -= 1
    x
  }
}
