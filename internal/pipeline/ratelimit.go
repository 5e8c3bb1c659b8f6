package pipeline

import (
	"fmt"
	"math"
	"time"

	"repro/internal/source"
)

// RateLimit caps the delivered sample rate at maxHz: a sample passes only
// when at least 1/maxHz of virtual time elapsed since the last kept one,
// so a polled vendor meter can be ingested at a monitoring-friendly
// cadence without changing the backend. Markers on throttled samples
// reattach to the next kept sample (carrying across ReadInto boundaries
// if need be); only at station retirement can an owed mark be dropped,
// when the kept sample it is waiting for never arrives — the stream's
// delivery boundary, like Resample's open bin.
//
// The stage also accounts the sampling overhead the throttle exists to
// bound: the cumulative wall-clock time spent inside ReadInto — the cost
// of driving and polling the backend, the measurement's own footprint on
// the measured system (the RAPL-overhead concern) — is exposed through
// source.Overheader, published on fleet.Status as OverheadSeconds and
// exported as powersensor_source_overhead_seconds. With the simulated
// meters this measures the simulated poll-and-workload path, which is
// exactly where a real meter's syscall/SMBus cost would sit.
//
// Meta.RateHz is rewritten to the rate actually delivered, not maxHz
// itself: the throttle keeps every k-th sample of the inner grid where
// k = ceil(innerHz/maxHz), so the delivered rate is innerHz/k — equal to
// maxHz when maxHz divides the inner rate, lower when it does not (a
// 1 kHz meter limited to 999 Hz delivers 500 Hz: every other sample).
// Advertising the quantised rate keeps the fleet's block sizing and the
// exported powersensor_source_rate_hz honest. RateLimit panics on a
// non-positive maxHz.
func RateLimit(maxHz float64) Stage {
	if maxHz <= 0 {
		panic(fmt.Sprintf("pipeline: RateLimit needs a positive rate, got %v", maxHz))
	}
	return func(inner source.Source) source.Source {
		rate := maxHz
		if in := inner.Meta().RateHz; in > 0 {
			rate = in / math.Ceil(in/maxHz)
		}
		return &rateLimiter{
			wrap: derive(inner, "ratelimit", rate),
			min:  time.Duration(float64(time.Second) / maxHz),
		}
	}
}

type rateLimiter struct {
	wrap
	min       time.Duration // minimum virtual-time spacing of kept samples
	lastKept  time.Duration
	pendMarks int          // markers from throttled samples, owed to the next kept one
	in        source.Batch // reused scratch the inner source fills
	overhead  time.Duration
}

// ReadInto implements source.Source: the inner source fills the reused
// scratch batch, and samples respecting the minimum spacing copy through
// into the caller's columns. Like the Source it wraps, the stage is
// single-goroutine confined, so the overhead accumulator needs no atomics
// — the fleet reads it via Overhead under the same device mutex that
// serialises ReadInto.
func (l *rateLimiter) ReadInto(d time.Duration, b *source.Batch) error {
	began := time.Now()
	stride := len(l.meta.Channels)
	b.Reset(stride)
	err := l.inner.ReadInto(d, &l.in)
	in := &l.in
	n := in.Len()
	marks := in.Marks
	mk := 0
	for i := 0; i < n; i++ {
		owed := 0
		for mk < len(marks) && marks[mk] == i {
			owed++
			mk++
		}
		t := in.Time[i]
		if l.lastKept != 0 && t < l.lastKept+l.min {
			l.pendMarks += owed
			continue
		}
		b.Append(t, in.Chans[i*stride:(i+1)*stride], in.Total[i])
		for owed += l.pendMarks; owed > 0; owed-- {
			b.Mark()
		}
		l.pendMarks = 0
		l.lastKept = t
	}
	// One clock read feeds both accountings: the cumulative Overheader
	// counter and the stage's latency distribution.
	el := time.Since(began)
	l.overhead += el
	l.record(el)
	return err
}

// Overhead implements source.Overheader with this stage's own
// accumulator. The window already spans the whole inner ReadInto, so it
// is not added to a deeper stage's accounting — nesting rate limiters
// reports the innermost work once, through the outermost counter.
func (l *rateLimiter) Overhead() time.Duration { return l.overhead }
