package trace

import "sync/atomic"

// ring is a fixed-size lock-free buffer of finished spans. Writers claim a
// slot with one atomic add and store a pointer; the newest spans overwrite
// the oldest, bounding retention without any locking or freeing. Snapshots
// are read with atomic loads — a snapshot taken during concurrent writes is
// each-slot-consistent (a slot holds either the old or the new span, never
// a torn value), which is all a debugging surface needs.
type ring struct {
	slots []atomic.Pointer[Span]
	next  atomic.Uint64
	mask  uint64
}

// newRing sizes the buffer to the next power of two ≥ size (minimum 64) so
// slot indexing is a mask, not a modulo.
func newRing(size int) *ring {
	n := 64
	for n < size {
		n <<= 1
	}
	return &ring{slots: make([]atomic.Pointer[Span], n), mask: uint64(n - 1)}
}

func (r *ring) put(s *Span) {
	i := r.next.Add(1) - 1
	r.slots[i&r.mask].Store(s)
}

// snapshot returns the retained spans oldest-first. The write cursor may
// advance while we read; the result is a best-effort window, never a torn
// span.
func (r *ring) snapshot() []*Span {
	n := r.next.Load()
	size := uint64(len(r.slots))
	start := uint64(0)
	if n > size {
		start = n - size
	}
	out := make([]*Span, 0, n-start)
	for i := start; i < n; i++ {
		if s := r.slots[i&r.mask].Load(); s != nil {
			out = append(out, s)
		}
	}
	return out
}
