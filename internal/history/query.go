// Windowed queries over a Series: trapezoidal energy integration with
// partial-interval clipping at both window edges, and windowed decode.

package history

import (
	"sync"
	"time"
)

// segmentEnergy returns the energy, in joules, of the linear power
// segment from (t0, w0) to (t1, w1) clipped to the window [from, to]:
// the clipped sub-interval's endpoint powers are linearly interpolated
// and trapezoid-integrated. A window edge falling strictly inside the
// segment therefore takes exactly the covered slice — never snapping to
// the nearer stored point. Degenerate inputs (t1 <= t0, to <= from, or
// no overlap) contribute exactly 0 J, never NaN: the zero-interval
// contract shared with pmt.Watts.
func segmentEnergy(t0 time.Duration, w0 float64, t1 time.Duration, w1 float64, from, to time.Duration) float64 {
	if t1 <= t0 || to <= from {
		return 0
	}
	a, b := t0, t1
	if from > a {
		a = from
	}
	if to < b {
		b = to
	}
	if b <= a {
		return 0
	}
	span := (t1 - t0).Seconds()
	slope := (w1 - w0) / span
	wa := w0 + slope*(a-t0).Seconds()
	wb := w0 + slope*(b-t0).Seconds()
	return (wa + wb) / 2 * (b - a).Seconds()
}

// Integrate trapezoid-integrates a raw sampled power series over
// [from, to] with the same edge-clipping semantics as EnergyWindow —
// the reference integrator the history tier is tested against. times
// must be ascending; len(watts) must equal len(times).
func Integrate(times []time.Duration, watts []float64, from, to time.Duration) float64 {
	var j float64
	for i := 1; i < len(times); i++ {
		j += segmentEnergy(times[i-1], watts[i-1], times[i], watts[i], from, to)
	}
	return j
}

// EnergyWindow integrates the stored power series over [from, to], in
// joules. Edges clip: a window boundary falling between two stored
// points takes the linearly interpolated partial trapezoid of that
// interval. An empty or inverted window (to <= from), or a window
// wholly outside the stored span, returns exactly 0 J — never NaN.
//
// Blocks fully covered by the window contribute their precomputed
// energy sum without decoding; only the (at most two) blocks a window
// edge cuts are decoded, after the lock is released, and each only as
// far as it must be: up to the first point at or past the window's
// end, or — for a block the window's start cuts and whose end the
// window covers — up to the start, taking the block's sum minus that
// prefix. A query's cost scales with the block count plus two partial
// block decodes, not the point count.
func (s *Series) EnergyWindow(from, to time.Duration) float64 {
	if to <= from {
		return 0
	}
	q := windowQuery{from: from, to: to}
	var scratch *[]byte
	s.mu.Lock()
	done := false
	for i := range s.blocks {
		var cut bool
		if cut, done = q.add(&s.blocks[i]); cut {
			q.cuts[q.nCuts] = s.blocks[i]
			q.nCuts++
		}
		if done {
			break
		}
	}
	if !done && s.head.count > 0 {
		hv := s.head.view()
		if cut, _ := q.add(&hv); cut {
			q.cuts[q.nCuts], scratch = s.headCopy()
			q.nCuts++
		}
	}
	s.mu.Unlock()
	for i := 0; i < q.nCuts; i++ {
		q.joules += q.cutEnergy(&q.cuts[i])
	}
	if scratch != nil {
		bitScratch.Put(scratch)
	}
	return q.joules
}

// bitScratch recycles the buffers queries copy a head block's bits
// into, so a query neither decodes under the lock nor allocates a copy.
var bitScratch = sync.Pool{New: func() any { return new([]byte) }}

// headCopy returns the head block's summary over a pooled copy of its
// bits, and the scratch to return to bitScratch once decoded. Called
// with s.mu held.
func (s *Series) headCopy() (block, *[]byte) {
	buf := bitScratch.Get().(*[]byte)
	*buf = s.head.w.appendTo((*buf)[:0])
	hv := s.head.view()
	hv.bits = *buf
	return hv, buf
}

// windowQuery accumulates one EnergyWindow pass: the running integral
// of everything block summaries answer, the previous point seen, which
// bridges the gap segments between blocks (a block boundary is still
// one sampling interval of the underlying series), and the blocks a
// window edge cuts, decoded once the lock is released.
type windowQuery struct {
	from, to time.Duration
	joules   float64
	havePrev bool
	prevT    time.Duration
	prevW    float64
	cuts     [2]block // one block holds from strictly inside, one to
	nCuts    int
}

func (q *windowQuery) bridge(t time.Duration, w float64) {
	if q.havePrev {
		q.joules += segmentEnergy(q.prevT, q.prevW, t, w, q.from, q.to)
	}
	q.havePrev, q.prevT, q.prevW = true, t, w
}

// add folds one non-empty block's summary into the query. It reports
// whether a window edge cuts the block, so its internal segments need
// decoding, and whether the window is exhausted (every later block lies
// wholly past it).
func (q *windowQuery) add(b *block) (cut, done bool) {
	// Bridge in from the previous block's last point; a block before
	// the window only carries its endpoints forward.
	q.bridge(b.t0, b.v0)
	switch {
	case b.t0 >= q.to:
		return false, true
	case b.tLast <= q.from:
	case q.from <= b.t0 && b.tLast <= q.to:
		q.joules += b.sumJ
	default:
		cut = true
	}
	q.havePrev, q.prevT, q.prevW = true, b.tLast, b.vLast
	return cut, false
}

// cutEnergy decodes a block a window edge cuts and returns the energy
// of its internal segments inside the window. Decoding stops at the
// first point at or past the window's end; when only the window's
// start cuts the block, it stops at the start instead and subtracts
// that prefix from the block's precomputed sum.
func (q *windowQuery) cutEnergy(b *block) float64 {
	it := b.iter()
	pt, pw, _ := it.next()
	if q.from > b.t0 && q.to >= b.tLast {
		var prefix float64
		for pt < q.from {
			t, w, ok := it.next()
			if !ok {
				break
			}
			prefix += segmentEnergy(pt, pw, t, w, b.t0, q.from)
			pt, pw = t, w
		}
		return b.sumJ - prefix
	}
	var j float64
	for pt < q.to {
		t, w, ok := it.next()
		if !ok {
			break
		}
		j += segmentEnergy(pt, pw, t, w, q.from, q.to)
		pt, pw = t, w
	}
	return j
}

// PointsInto appends the stored points with timestamps in [from, to]
// (inclusive) to dst, oldest first, and returns the extended slice.
// Blocks wholly outside the window are skipped without decoding; the
// overlapping ones are copied under the lock and decoded after it.
func (s *Series) PointsInto(dst []Point, from, to time.Duration) []Point {
	if to < from {
		return dst
	}
	s.mu.Lock()
	lo, hi := 0, len(s.blocks)
	for lo < hi && s.blocks[lo].tLast < from {
		lo++
	}
	for hi > lo && s.blocks[hi-1].t0 > to {
		hi--
	}
	blocks := append([]block(nil), s.blocks[lo:hi]...)
	var scratch *[]byte
	if h := &s.head; h.count > 0 && h.tLast >= from && h.t0 <= to {
		var hv block
		hv, scratch = s.headCopy()
		blocks = append(blocks, hv)
	}
	s.mu.Unlock()
	for i := range blocks {
		dst = appendWindow(dst, &blocks[i], from, to)
	}
	if scratch != nil {
		bitScratch.Put(scratch)
	}
	return dst
}

func appendWindow(dst []Point, b *block, from, to time.Duration) []Point {
	it := b.iter()
	for {
		t, w, ok := it.next()
		if !ok || t > to {
			break
		}
		if t >= from {
			dst = append(dst, Point{Time: t, Watts: w})
		}
	}
	return dst
}
