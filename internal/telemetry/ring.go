package telemetry

// Ring is a fixed-capacity FIFO that evicts its oldest element when full;
// Push, At and Pop are O(1) per element. It is the one ring under the
// Journal, every Subscription buffer, every sampler series, the tracer's
// finished traces and the server's flight recorder. A Ring is not safe
// for concurrent use: its owner synchronizes.
type Ring[T any] struct {
	buf  []T
	head int // index of the oldest element
	n    int // live elements
}

// NewRing returns an empty ring holding at most capacity (> 0) elements.
func NewRing[T any](capacity int) Ring[T] { return Ring[T]{buf: make([]T, capacity)} }

// Len returns the number of live elements.
func (r *Ring[T]) Len() int { return r.n }

// Push appends v and reports whether the oldest element was evicted to
// make room.
func (r *Ring[T]) Push(v T) (evicted bool) {
	if r.n < len(r.buf) {
		r.buf[(r.head+r.n)%len(r.buf)] = v
		r.n++
		return false
	}
	r.buf[r.head] = v
	r.head = (r.head + 1) % len(r.buf)
	return true
}

// At returns the i-th oldest live element (0 <= i < Len).
func (r *Ring[T]) At(i int) T { return r.buf[(r.head+i)%len(r.buf)] }

// Pop removes and returns up to max of the oldest elements (all of them
// when max <= 0), oldest first; nil when the ring is empty.
func (r *Ring[T]) Pop(max int) []T {
	n := r.n
	if max > 0 && n > max {
		n = max
	}
	if n == 0 {
		return nil
	}
	out := make([]T, n)
	var zero T
	for i := range out {
		j := (r.head + i) % len(r.buf)
		// Clear the slot so a popped element's references can be freed.
		out[i], r.buf[j] = r.buf[j], zero
	}
	r.head = (r.head + n) % len(r.buf)
	r.n -= n
	return out
}
