// The per-station downsample ring: fixed-capacity, column-major storage
// for the block statistics the fleet publishes. See doc.go for the
// package overview.

package fleet

import (
	"math"
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
	// Marks counts the time-synced user markers (source.Batch.Marks)
	// carried by the block's samples, so a 20 kHz marker survives
	// downsampling into its block's point instead of being averaged away.
	Marks int `json:"marks,omitempty"`
}

// Ring is a fixed-capacity overwrite-oldest buffer of Points with one
// writer and any number of readers. It stores its points column-major:
// one preallocated slice per Point field, and every point's Watts row in
// one flat float64 arena with stride Chans. No column holds a pointer,
// so a slot costs 20 B plus 8 B per channel (176 KiB for a 3-channel
// station at capacity 4096) and the garbage collector never scans the
// ring's contents. Pushing copies a few floats into recycled slots and
// never allocates — the 20 kHz ingest path touches the ring once per
// step, holding the lock only to copy that step's points in or a bounded
// batch out.
//
// Because slots are recycled on wraparound, readers never receive views
// into the columns: Snapshot assembles deep-copied Points.
type Ring struct {
	mu     sync.Mutex
	times  []time.Duration // len == capacity, like every column
	totals []float64
	marks  []int32   // saturating; a block never holds 2³¹ samples
	watts  []float64 // capacity × chans: slot i's row is watts[i*chans:(i+1)*chans]
	chans  int
	n      int // points currently held
	next   int // slot the next push writes
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
	return &Ring{
		times:  make([]time.Duration, capacity),
		totals: make([]float64, capacity),
		marks:  make([]int32, capacity),
		watts:  make([]float64, capacity*chans),
		chans:  chans,
	}
}

// Cap returns the ring's capacity. It is fixed at construction, so Cap
// takes no lock.
func (r *Ring) Cap() int { return len(r.times) }

// PushN records k consecutive downsampled points under one lock
// acquisition — the ingest path collects the blocks completed within one
// step and pushes them together, instead of paying a lock round-trip per
// block. watts is sample-major with the ring's channel stride (point i's
// row is watts[i*chans:(i+1)*chans]); times, totals and marks hold one
// entry per point. Of a batch longer than the capacity only the
// newest Cap points are kept, as if pushed one by one. Each column is
// copied in at most two contiguous runs, split at the wrap. PushN copies
// everything, so the caller may reuse its buffers, and never allocates.
func (r *Ring) PushN(times []time.Duration, watts, totals []float64, marks []int) {
	k := len(times)
	c := len(r.times)
	ch := r.chans
	r.mu.Lock()
	src := 0
	if k > c {
		src = k - c // the older points would be overwritten within this call
	}
	for src < k {
		dst := r.next
		run := min(k-src, c-dst)
		end := src + run
		copy(r.times[dst:], times[src:end])
		copy(r.totals[dst:], totals[src:end])
		for j, m := range marks[src:end] {
			r.marks[dst+j] = int32(min(m, math.MaxInt32))
		}
		copy(r.watts[dst*ch:], watts[src*ch:end*ch])
		src = end
		r.next = (dst + run) % c
		r.n = min(r.n+run, c)
	}
	r.mu.Unlock()
}

// Len returns the number of points currently held.
func (r *Ring) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
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
	c := len(r.times)
	ch := r.chans
	out := make([]Point, n)
	watts := make([]float64, n*ch)
	// The newest point sits just before r.next, so the n newest start n
	// slots earlier.
	start := (r.next - n + c) % c
	idx := start
	for i := range out {
		out[i] = Point{
			Time:  r.times[idx],
			Watts: watts[i*ch : (i+1)*ch : (i+1)*ch],
			Total: r.totals[idx],
			Marks: int(r.marks[idx]),
		}
		if idx++; idx == c {
			idx = 0
		}
	}
	// The Watts rows of consecutive slots are contiguous in the arena, so
	// they copy in at most two runs, split at the wrap.
	head := copy(watts, r.watts[start*ch:])
	copy(watts[head:], r.watts)
	return out
}
