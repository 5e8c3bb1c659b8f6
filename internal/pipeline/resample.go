package pipeline

import (
	"fmt"
	"time"

	"repro/internal/source"
)

// Resample converts the inner source's stream to outHz by energy-
// conserving bin averaging: virtual time is cut into fixed bins of
// 1/outHz, every inner sample lands in the bin covering its timestamp,
// and each non-empty bin emits one sample at the bin's right edge whose
// per-channel and summed power are the mean over the bin — so the
// integral of power over time (the energy) is preserved, which the
// delegated Joules counter states exactly. Time-synced markers are
// remapped, not averaged away: every marker on an inner sample reattaches
// to the resampled sample of its bin, so no mark in the delivered stream
// is lost (a bin holding several marked samples emits one sample carrying
// that many marks). Marks share the stream's delivery boundary: at
// station retirement, a mark inside the still-open bin is dropped with
// that bin's samples — the same granularity at which the fleet's own
// drain discards samples its source never delivered.
//
// Downsampling is the intended use (a 1 kHz view of a 20 kHz rig). An
// outHz above the inner rate degenerates to pass-through with timestamps
// snapped to bin edges — allowed, but it invents no samples.
//
// Resample panics on a non-positive outHz: a construction-time wiring
// error, like source.NewPolled's validation.
func Resample(outHz float64) Stage {
	if outHz <= 0 {
		panic(fmt.Sprintf("pipeline: Resample needs a positive rate, got %v", outHz))
	}
	return func(inner source.Source) source.Source {
		return &resampler{
			wrap:   derive(inner, "resample", outHz),
			period: time.Duration(float64(time.Second) / outHz),
		}
	}
}

type resampler struct {
	wrap
	period time.Duration // output bin width
	in     source.Batch  // reused scratch the inner source fills

	// In-flight bin: right edge (0 = none open), sample count, running
	// per-channel and summed-power sums, markers seen. Fixed-size
	// accumulators, persisted across ReadInto calls so bins spanning a
	// slice boundary close correctly on the next read.
	binEnd   time.Duration
	lastEdge time.Duration // right edge of the last emitted bin
	n        int
	sums     [source.MaxChannels]float64
	totSum   float64
	marks    int
	scratch  [source.MaxChannels]float64 // emit's per-channel means
}

// ReadInto implements source.Source: it advances the inner source into
// the reused scratch batch, folds every sample into its bin, and appends
// one averaged sample per completed bin into b. A bin completes when a
// sample on its right edge or beyond it arrives. That decision depends
// only on the delivered sample sequence, never on the inner clock: a
// PowerSensor3 rig's clock runs ahead of the samples it has delivered, so
// closing on the clock would emit the rest of a bin as a second sample
// with the same timestamp, and the output would depend on how the reads
// were sliced. The delivered stream lags the raw one by at most one bin
// plus one inner sample period.
func (r *resampler) ReadInto(d time.Duration, b *source.Batch) error {
	began := time.Now()
	stride := len(r.meta.Channels)
	b.Reset(stride)
	err := r.inner.ReadInto(d, &r.in)
	in := &r.in
	n := in.Len()
	marks := in.Marks
	mk := 0
	for i := 0; i < n; {
		t := in.Time[i]
		if r.binEnd != 0 && t > r.binEnd {
			r.emit(b, stride)
		}
		if r.binEnd == 0 {
			// Right edge of the bin covering t; a sample exactly on an
			// edge belongs to the bin ending there. A sample repeating an
			// emitted edge's timestamp joins the next bin, so no two
			// delivered samples share a timestamp.
			r.binEnd = (t + r.period - 1) / r.period * r.period
			if r.binEnd <= r.lastEdge {
				r.binEnd = r.lastEdge + r.period
			}
		}
		// The run of samples the open bin takes: up to the first past
		// its edge, or through the first on it, which fills the bin.
		j, full := i, false
		for j < n && in.Time[j] <= r.binEnd {
			j++
			if in.Time[j-1] == r.binEnd {
				full = true // timestamps never decrease: the bin is full
				break
			}
		}
		// Each column's running sum is folded in sample order through a
		// register, as adding every sample into the bin's sums would.
		for m := 0; m < stride; m++ {
			s := r.sums[m]
			for k := i*stride + m; k < j*stride; k += stride {
				s += in.Chans[k]
			}
			r.sums[m] = s
		}
		tot := r.totSum
		for _, w := range in.Total[i:j] {
			tot += w
		}
		r.totSum = tot
		r.n += j - i
		for ; mk < len(marks) && i < j; i++ {
			for mk < len(marks) && marks[mk] == i {
				r.marks++
				mk++
			}
		}
		i = j
		if full {
			r.emit(b, stride)
		}
	}
	r.record(time.Since(began))
	return err
}

// emit closes the in-flight bin into b: one sample at the bin edge
// carrying the bin means, re-marked once per marker the bin absorbed.
func (r *resampler) emit(b *source.Batch, stride int) {
	if r.n == 0 {
		r.binEnd = 0
		return
	}
	inv := 1 / float64(r.n)
	for m := 0; m < stride; m++ {
		r.scratch[m] = r.sums[m] * inv
		r.sums[m] = 0
	}
	b.Append(r.binEnd, r.scratch[:stride], r.totSum*inv)
	r.lastEdge = r.binEnd
	for ; r.marks > 0; r.marks-- {
		b.Mark()
	}
	r.totSum = 0
	r.n = 0
	r.binEnd = 0
}
