// Fault-injection stages: reproducible measurement-quality failures on
// the columnar Batch path. Real power instrumentation fails in
// well-documented ways — the POWER9 OCC evaluation (PAPERS.md) catalogs
// stale/stuck readings, glitch spikes and timestamp skew in production
// firmware — and this file injects exactly those modes between any two
// pipeline stages, so the fleet's health watchdog (internal/fleet) can be
// exercised against failures that replay identically from a seed.
//
// Every fault is deterministic and seed-pinned: randomness comes from one
// internal/rng source per stage instance, consumed in stream order (one
// draw per fault window for Dropout/Stuck, one per sample for Spike and
// Jitter), so the same seed over the same inner stream yields a
// byte-identical faulted stream — scenarios are regression tests, not
// dice rolls. Like every other stage, the faults transform the caller's
// batch in place and allocate nothing in steady state.
package pipeline

import (
	"fmt"
	"time"

	"repro/internal/rng"
	"repro/internal/source"
)

// faultWindows cuts virtual time into fixed dur-wide windows anchored at
// t=0 and decides per window — one rng draw each, in order — whether the
// window is faulted. Windows are consumed monotonically as sample
// timestamps cross their right edges, so the decision sequence depends
// only on the seed and the window grid, never on batch boundaries.
type faultWindows struct {
	rng    *rng.Source
	p      float64
	dur    time.Duration
	winEnd time.Duration // right edge of the current window
	active bool          // current window is faulted
}

// faultedAt reports whether the window covering t is faulted, advancing
// (and drawing) any windows t has moved past. Timestamps must be
// non-decreasing across calls — the Source contract.
func (f *faultWindows) faultedAt(t time.Duration) bool {
	for t >= f.winEnd {
		f.winEnd += f.dur
		f.active = f.rng.Float64() < f.p
	}
	return f.active
}

// Dropout models a source that goes silent in bursts — a wedged DMA, a
// dropped USB transfer, a poll that timed out: virtual time is cut into
// dur-wide windows and each window independently goes dark with
// probability p, deleting every sample inside it from the delivered
// stream. Timestamps keep their native spacing outside the dark windows,
// so the consumer sees real gaps (missed block deadlines), which is what
// the fleet watchdog's gap detection keys on. Markers on dropped samples
// are lost with them — the physical semantics of a dead link — while
// markers on surviving samples are re-indexed to their new positions.
//
// Meta.RateHz deliberately stays the inner source's nominal rate: the
// backend still claims its native cadence, the samples just never arrive.
// That mismatch is the fault. Joules delegates to the backend — energy
// was consumed whether or not the link delivered the samples.
//
// Dropout panics when p is outside [0, 1] or dur is not positive.
func Dropout(p float64, dur time.Duration, seed uint64) Stage {
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("pipeline: Dropout needs p in [0, 1], got %v", p))
	}
	if dur <= 0 {
		panic(fmt.Sprintf("pipeline: Dropout needs a positive window, got %v", dur))
	}
	return func(inner source.Source) source.Source {
		return &dropout{
			wrap: derive(inner, "dropout", 0),
			win:  faultWindows{rng: rng.New(seed), p: p, dur: dur},
		}
	}
}

type dropout struct {
	wrap
	win faultWindows
}

// ReadInto implements source.Source: the inner source fills the caller's
// batch and the dark windows' samples are compacted away in place —
// surviving samples slide down, marker indices are remapped to the
// compacted positions, and the columns are truncated. No scratch batch,
// no allocations.
func (f *dropout) ReadInto(d time.Duration, b *source.Batch) error {
	began := time.Now()
	err := f.inner.ReadInto(d, b)
	n := b.Len()
	stride := b.Stride()
	marks := b.Marks
	mk, marksW := 0, 0
	w := 0
	for i := 0; i < n; i++ {
		if f.win.faultedAt(b.Time[i]) {
			for mk < len(marks) && marks[mk] == i {
				mk++ // marker on a dropped sample: lost with it
			}
			continue
		}
		if w != i {
			b.Time[w] = b.Time[i]
			b.Total[w] = b.Total[i]
			copy(b.Chans[w*stride:(w+1)*stride], b.Chans[i*stride:(i+1)*stride])
		}
		for mk < len(marks) && marks[mk] == i {
			marks[marksW] = w
			marksW++
			mk++
		}
		w++
	}
	b.Time = b.Time[:w]
	b.Total = b.Total[:w]
	b.Chans = b.Chans[:w*stride]
	b.Marks = marks[:marksW]
	f.record(time.Since(began))
	return err
}

// Stuck models a flatlined sensor — a register that stopped updating, an
// ADC repeating its last conversion: within each faulted dur-wide window
// (probability p, same windowing as Dropout) every sample's power values
// are replaced by an exact repeat of the last healthy sample's, while
// timestamps keep advancing normally. The delivered stream looks alive —
// right rate, right timing — but carries no information, the failure mode
// the fleet watchdog's flatline detection (runs of bit-identical totals)
// exists to catch. A window opening before any healthy sample has been
// seen passes through unchanged; there is nothing to repeat yet.
//
// Stuck panics when p is outside [0, 1] or dur is not positive.
func Stuck(p float64, dur time.Duration, seed uint64) Stage {
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("pipeline: Stuck needs p in [0, 1], got %v", p))
	}
	if dur <= 0 {
		panic(fmt.Sprintf("pipeline: Stuck needs a positive window, got %v", dur))
	}
	return func(inner source.Source) source.Source {
		return &stuck{
			wrap: derive(inner, "stuck", 0),
			win:  faultWindows{rng: rng.New(seed), p: p, dur: dur},
		}
	}
}

type stuck struct {
	wrap
	win    faultWindows
	primed bool
	held   [source.MaxChannels]float64 // last healthy sample's row
	heldT  float64                     // last healthy sample's total
}

// ReadInto implements source.Source: an in-place overlay on the caller's
// batch, repeating the held values through faulted windows and refreshing
// them from healthy samples.
func (f *stuck) ReadInto(d time.Duration, b *source.Batch) error {
	began := time.Now()
	err := f.inner.ReadInto(d, b)
	n := b.Len()
	stride := b.Stride()
	for i := 0; i < n; i++ {
		row := b.Chans[i*stride : (i+1)*stride]
		if f.win.faultedAt(b.Time[i]) && f.primed {
			copy(row, f.held[:stride])
			b.Total[i] = f.heldT
			continue
		}
		copy(f.held[:stride], row)
		f.heldT = b.Total[i]
		f.primed = true
	}
	f.record(time.Since(began))
	return err
}

// Spike models glitch outliers — a bus transient or conversion error
// scaling an isolated reading far off the trace: each delivered sample
// independently glitches with probability p, multiplying its total and
// every channel by mag. One uniform draw per sample keeps the stream
// seed-deterministic. Energy truth is untouched (Joules delegates): a
// misread sample does not change what the device consumed, which is
// exactly why a consumer should quarantine the outlier rather than
// integrate it.
//
// Spike panics when p is outside [0, 1] or mag is not positive. A mag
// below 1 models droop glitches; 1 is a no-op and also rejected.
func Spike(p, mag float64, seed uint64) Stage {
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("pipeline: Spike needs p in [0, 1], got %v", p))
	}
	if mag <= 0 || mag == 1 {
		panic(fmt.Sprintf("pipeline: Spike needs a positive magnitude != 1, got %v", mag))
	}
	return func(inner source.Source) source.Source {
		return &spiker{
			wrap: derive(inner, "spike", 0),
			rng:  rng.New(seed),
			p:    p,
			mag:  mag,
		}
	}
}

type spiker struct {
	wrap
	rng *rng.Source
	p   float64
	mag float64
}

// ReadInto implements source.Source: an in-place overlay scaling the
// glitched samples' values.
func (f *spiker) ReadInto(d time.Duration, b *source.Batch) error {
	began := time.Now()
	err := f.inner.ReadInto(d, b)
	n := b.Len()
	stride := b.Stride()
	for i := 0; i < n; i++ {
		if f.rng.Float64() >= f.p {
			continue
		}
		b.Total[i] *= f.mag
		row := b.Chans[i*stride : (i+1)*stride]
		for m := range row {
			row[m] *= f.mag
		}
	}
	f.record(time.Since(began))
	return err
}

// Skew models clock drift: the source's oscillator runs fast (positive
// ppm) or slow (negative) by ppm parts per million, so every delivered
// timestamp — and the source's Now — is stretched to t' = t*(1 + ppm/1e6).
// Power values are untouched; the fault is purely temporal, the slow
// divergence between a sensor's clock and the host's that the OCC paper
// documents firmware accumulating. Deterministic with no seed: drift is
// systematic, not noise.
//
// Skew panics when |ppm| is 1e6 or more — a clock that far off is not a
// drift model, and -1e6 would freeze or reverse time.
func Skew(ppm float64) Stage {
	if ppm <= -1e6 || ppm >= 1e6 {
		panic(fmt.Sprintf("pipeline: Skew needs |ppm| < 1e6, got %v", ppm))
	}
	return func(inner source.Source) source.Source {
		return &skewer{
			wrap: derive(inner, "skew", 0),
			f:    ppm * 1e-6,
		}
	}
}

type skewer struct {
	wrap
	f float64 // fractional rate error: t' = t + t*f
}

// Now implements source.Source on the skewed clock, consistently with the
// delivered timestamps — a consumer comparing sample times against Now
// sees one coherent (wrong) clock, as it would with real drifting
// hardware.
func (f *skewer) Now() time.Duration {
	t := f.inner.Now()
	return t + time.Duration(float64(t)*f.f)
}

// ReadInto implements source.Source: an in-place overlay on the timestamp
// column.
func (f *skewer) ReadInto(d time.Duration, b *source.Batch) error {
	began := time.Now()
	err := f.inner.ReadInto(d, b)
	for i, t := range b.Time {
		b.Time[i] = t + time.Duration(float64(t)*f.f)
	}
	f.record(time.Since(began))
	return err
}

// Jitter models timestamp noise: each delivered timestamp is perturbed by
// a Gaussian of standard deviation sd (one draw per sample, seed-pinned),
// clamped so the delivered stream stays non-decreasing — real timestamp
// noise wobbles sample spacing but a monotone counter never runs
// backwards. Power values and Now are untouched.
//
// Jitter panics when sd is not positive.
func Jitter(sd time.Duration, seed uint64) Stage {
	if sd <= 0 {
		panic(fmt.Sprintf("pipeline: Jitter needs a positive deviation, got %v", sd))
	}
	return func(inner source.Source) source.Source {
		return &jitterer{
			wrap: derive(inner, "jitter", 0),
			rng:  rng.New(seed),
			sd:   float64(sd),
		}
	}
}

type jitterer struct {
	wrap
	rng     *rng.Source
	sd      float64
	lastOut time.Duration // last delivered timestamp, for the monotone clamp
}

// ReadInto implements source.Source: an in-place overlay on the timestamp
// column, monotone across batch boundaries.
func (f *jitterer) ReadInto(d time.Duration, b *source.Batch) error {
	began := time.Now()
	err := f.inner.ReadInto(d, b)
	for i, t := range b.Time {
		t += time.Duration(f.rng.Norm() * f.sd)
		if t < f.lastOut {
			t = f.lastOut
		}
		b.Time[i] = t
		f.lastOut = t
	}
	f.record(time.Since(began))
	return err
}
