// The per-station downsample ring: fixed-capacity, arena-backed storage
// for the block statistics the fleet publishes. See doc.go for the
// package overview.

package fleet

import (
	"sync"
	"time"
)

// Point is one downsampled ring entry: the block statistics of one
// block's worth of consecutive native-rate samples.
type Point struct {
	// Time is the device time of the last sample in the block.
	Time time.Duration `json:"t"`
	// Watts is the per-pair block-average power.
	Watts []float64 `json:"w"`
	// Total is the block-average of the summed (board) power.
	Total float64 `json:"total"`
	// Min and Max bound the summed power within the block, preserving the
	// peaks that averaging alone would erase.
	Min float64 `json:"min"`
	Max float64 `json:"max"`
	// Marks counts the time-synced user markers (source.Batch.Marks)
	// carried by the block's samples, so a 20 kHz marker survives
	// downsampling into its block's point instead of being averaged away.
	Marks int `json:"marks,omitempty"`
}

// Ring is a fixed-capacity overwrite-oldest buffer of Points with one
// writer and any number of readers. Every point's Watts row lives in one
// flat float64 arena preallocated at construction, so pushing a point
// copies a few floats into a recycled slot and never allocates — the
// 20 kHz ingest path touches the ring once per step, holding the lock
// only to copy that step's points in or a bounded batch out.
//
// Because slots are recycled on wraparound, readers never receive views
// into the arena: Snapshot deep-copies the points it returns.
type Ring struct {
	mu    sync.Mutex
	buf   []Point   // len == capacity; Watts pre-bound to arena slots
	arena []float64 // capacity × chans flat backing for every Watts row
	chans int
	n     int    // points currently held
	next  int    // buf index the next push writes
	total uint64 // points ever pushed
}

// NewRing returns a ring holding the last capacity points of chans
// channels each. It panics if capacity is not positive or chans is
// negative.
func NewRing(capacity, chans int) *Ring {
	if capacity <= 0 {
		panic("fleet: NewRing with non-positive capacity")
	}
	if chans < 0 {
		panic("fleet: NewRing with negative channel count")
	}
	r := &Ring{buf: make([]Point, capacity), arena: make([]float64, capacity*chans), chans: chans}
	for i := range r.buf {
		r.buf[i].Watts = r.arena[i*chans : (i+1)*chans : (i+1)*chans]
	}
	return r
}

// Cap returns the ring's capacity. It is fixed at construction, so Cap
// takes no lock.
func (r *Ring) Cap() int { return len(r.buf) }

// Chans returns the per-point channel count.
func (r *Ring) Chans() int { return r.chans }

// PushN records k consecutive downsampled points under one lock
// acquisition — the ingest path collects the blocks completed within one
// step and pushes them together, instead of paying a lock round-trip per
// block. watts is sample-major with the ring's channel stride (point i's
// row is watts[i*chans:(i+1)*chans]); times, totals, mins, maxs and marks
// hold one entry per point. PushN copies everything, so the caller may
// reuse its buffers, and never allocates.
func (r *Ring) PushN(times []time.Duration, watts []float64, totals, mins, maxs []float64, marks []int) {
	r.mu.Lock()
	for i, t := range times {
		p := &r.buf[r.next]
		p.Time, p.Total, p.Min, p.Max, p.Marks = t, totals[i], mins[i], maxs[i], marks[i]
		copy(p.Watts, watts[i*r.chans:(i+1)*r.chans])
		r.next++
		if r.next == len(r.buf) {
			r.next = 0
		}
		if r.n < len(r.buf) {
			r.n++
		}
	}
	r.total += uint64(len(times))
	r.mu.Unlock()
}

// Len returns the number of points currently held.
func (r *Ring) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// Total returns the number of points ever pushed; Total − Len is how many
// were evicted by wraparound.
func (r *Ring) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Snapshot returns up to max of the most recent points, oldest first. A
// non-positive max returns everything held. The returned points are deep
// copies — their Watts rows are freshly backed, never views into the
// ring's recycled arena — so the caller owns them outright across any
// number of further pushes.
func (r *Ring) Snapshot(max int) []Point {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.n
	if max > 0 && max < n {
		n = max
	}
	if n == 0 {
		return nil
	}
	out := make([]Point, n)
	watts := make([]float64, n*r.chans)
	// Oldest-first order starts at r.next when full, at 0 while filling.
	start := 0
	if r.n == len(r.buf) {
		start = r.next
	}
	// Skip (held-n) oldest entries when a cap was requested.
	start = (start + r.n - n) % len(r.buf)
	for i := 0; i < n; i++ {
		src := &r.buf[(start+i)%len(r.buf)]
		out[i] = *src
		out[i].Watts = watts[i*r.chans : (i+1)*r.chans : (i+1)*r.chans]
		copy(out[i].Watts, src.Watts)
	}
	return out
}
