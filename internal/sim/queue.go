package sim

// Queue is a bounded FIFO connecting simulated processes. Put blocks the
// calling process while the queue is full; Get blocks while it is empty.
// Capacity 0 means unbounded. A Queue may be closed to signal end of
// stream to consumers.
//
// Queues are the backpressure mechanism of the cluster simulation: an
// overloaded downstream operator (or a saturated NIC ingress port) fills
// its input queue and stalls its producers, which is precisely the
// behaviour behind the network bottlenecks studied in the paper.
type Queue[T any] struct {
	name   string
	cap    int
	buf    []T // ring buffer; len(buf) is the allocated ring size
	head   int // index of the oldest item
	n      int // number of buffered items
	closed bool

	getters []func()
	putters []func()
}

// NewQueue creates a queue with the given capacity (0 = unbounded). The
// ring is pre-sized to the capacity so a bounded queue never reallocates;
// unbounded queues grow geometrically.
func NewQueue[T any](name string, capacity int) *Queue[T] {
	q := &Queue[T]{name: name, cap: capacity}
	if capacity > 0 {
		q.buf = make([]T, capacity)
	}
	return q
}

// Len returns the number of buffered items.
func (q *Queue[T]) Len() int { return q.n }

// push appends v to the ring, growing it when full (unbounded queues).
func (q *Queue[T]) push(v T) {
	if q.n == len(q.buf) {
		grown := make([]T, max(2*len(q.buf), 16))
		for i := 0; i < q.n; i++ {
			grown[i] = q.buf[(q.head+i)%len(q.buf)]
		}
		q.buf, q.head = grown, 0
	}
	i := q.head + q.n
	if i >= len(q.buf) { // wrap by compare: capacities are not powers of two, and a divide costs
		i -= len(q.buf)
	}
	q.buf[i] = v
	q.n++
}

// shift removes and returns the oldest item. Caller checks q.n > 0.
func (q *Queue[T]) shift() T {
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero // release for GC
	if q.head++; q.head == len(q.buf) {
		q.head = 0
	}
	q.n--
	return v
}

// Closed reports whether Close has been called.
func (q *Queue[T]) Closed() bool { return q.closed }

// wakeGetters and wakePutters drain their wait-list by truncating it in
// place and invoking each parked process's wake callback. Reusing the
// backing array (rather than nilling it) makes a steady-state
// park/wake cycle allocation-free — formerly the top allocation site of
// the whole simulator. Reuse is safe because a wake callback only
// schedules a resume event (Engine.resumeAt); no user code runs during
// the drain, so nothing can append to the list while it is iterated.
func (q *Queue[T]) wakeGetters() {
	ws := q.getters
	q.getters = q.getters[:0]
	for _, w := range ws {
		w()
	}
}

func (q *Queue[T]) wakePutters() {
	ws := q.putters
	q.putters = q.putters[:0]
	for _, w := range ws {
		w()
	}
}

// Put appends v, blocking while the queue is full. Putting into a closed
// queue panics (producers must be quiesced before closing).
func (q *Queue[T]) Put(p *Proc, v T) {
	for q.cap > 0 && q.n >= q.cap {
		if q.closed {
			panic("sim: Put on closed queue " + q.name)
		}
		p.parkOn(&q.putters)
	}
	if q.closed {
		panic("sim: Put on closed queue " + q.name)
	}
	q.push(v)
	q.wakeGetters()
}

// TryPut appends v without blocking; reports whether it was accepted.
func (q *Queue[T]) TryPut(v T) bool {
	if q.closed || (q.cap > 0 && q.n >= q.cap) {
		return false
	}
	q.push(v)
	q.wakeGetters()
	return true
}

// TryGet removes and returns the oldest item without blocking; ok=false
// when the queue is empty (buffered items remain retrievable after
// Close).
func (q *Queue[T]) TryGet() (v T, ok bool) {
	if q.n == 0 {
		var zero T
		return zero, false
	}
	v = q.shift()
	q.wakePutters()
	return v, true
}

// Get removes and returns the oldest item. It blocks while the queue is
// empty; when the queue is closed and drained it returns ok=false.
func (q *Queue[T]) Get(p *Proc) (v T, ok bool) {
	for q.n == 0 {
		if q.closed {
			var zero T
			return zero, false
		}
		p.parkOn(&q.getters)
	}
	v = q.shift()
	q.wakePutters()
	return v, true
}

// WaitGet is the task form of parking in Get: t is stepped once, when an
// item arrives or the queue closes, and tries again. The caller found
// TryGet empty and the queue not Closed (that one wakes nobody again).
func (q *Queue[T]) WaitGet(t *Task) { q.getters = append(q.getters, t.wake) }

// WaitPut is the task form of parking in Put, after a refused TryPut.
// TryPut refuses a closed queue too, where Put panics, so WaitPut does.
func (q *Queue[T]) WaitPut(t *Task) {
	if q.closed {
		panic("sim: Put on closed queue " + q.name)
	}
	q.putters = append(q.putters, t.wake)
}

// Close marks the queue closed, waking any blocked getters. Items already
// buffered remain retrievable.
func (q *Queue[T]) Close() {
	if q.closed {
		return
	}
	q.closed = true
	q.wakeGetters()
	q.wakePutters()
}
