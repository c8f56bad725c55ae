// A growable ring-buffer deque, the queue primitive behind the fleet
// scheduler's held queue and the autoscaler's waiting queue. The
// previous slice-backed held queue popped by re-slicing and
// re-prepended a failed head with an append — O(n) per operation,
// O(n²) across a hold-heavy phase. The ring makes every push and pop
// O(1) amortized, with the backing array reused across fill/drain
// cycles.
package serve

// deque is a double-ended queue over a power-of-two ring buffer.
// The zero value is an empty deque ready for use.
type deque[T any] struct {
	buf  []T
	head int // index of the front element
	n    int // number of elements
}

// len reports the number of queued elements.
func (d *deque[T]) len() int { return d.n }

// grow doubles the ring (or seeds it) so one more element fits.
func (d *deque[T]) grow() {
	c := len(d.buf) * 2
	if c == 0 {
		c = 8
	}
	buf := make([]T, c)
	for i := 0; i < d.n; i++ {
		buf[i] = d.buf[(d.head+i)&(len(d.buf)-1)]
	}
	d.buf, d.head = buf, 0
}

// pushBack appends to the tail.
func (d *deque[T]) pushBack(v T) {
	if d.n == len(d.buf) {
		d.grow()
	}
	d.buf[(d.head+d.n)&(len(d.buf)-1)] = v
	d.n++
}

// pushFront prepends to the head (a failed retry putting the element
// back where strict FCFS needs it).
func (d *deque[T]) pushFront(v T) {
	if d.n == len(d.buf) {
		d.grow()
	}
	d.head = (d.head - 1) & (len(d.buf) - 1)
	d.buf[d.head] = v
	d.n++
}

// front returns the head element; it must exist.
func (d *deque[T]) front() T { return d.buf[d.head] }

// popFront removes and returns the head element; it must exist.
func (d *deque[T]) popFront() T {
	v := d.buf[d.head]
	var zero T
	d.buf[d.head] = zero // release references for GC
	d.head = (d.head + 1) & (len(d.buf) - 1)
	d.n--
	return v
}
