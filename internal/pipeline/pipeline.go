// Package pipeline is the derived-source layer: composable source.Source
// wrappers that stack on any measurement backend and stay on the
// zero-allocation columnar Batch path.
//
// The paper serves every backend at its native rate; real deployments
// need *views* on top of that — a 1 kHz resampled feed of a 20 kHz
// PowerSensor3 rig next to the raw one, a calibration overlay applied
// without reflashing the sensor, a polled vendor meter throttled so the
// monitoring itself does not distort the measurement (the sampling-
// overhead concern RAPL-based tools quantify). Each view is a stage
// wrapping an inner source:
//
//	any source.Source          e.g. powersensor3 @ 20 kHz
//	      │
//	  Resample                 rate conversion, energy-conserving bin
//	      │                    averaging, marker indices remapped
//	  Calibrate                uniform gain/offset on every channel,
//	      │                    applied in the batch fold
//	  RateLimit                max delivered sample rate, cumulative
//	      │                    sampling-overhead accounting (Overheader)
//	   Smooth                  EWMA over Total and every channel
//	      │
//	 fleet.Device              block size and ring pacing derived from
//	                           the stage-rewritten Meta.RateHz
//
// Stages compose with Chain and in any order; each rewrites the source
// Meta it presents upward — the backend name grows a "+stage" suffix
// (e.g. "powersensor3+resample+calib") and RateHz reflects the delivered
// rate — so the fleet manager sizes downsample blocks for the derived
// stream with no special cases, and /metrics exposes the derived backend
// and rate like any other station's.
//
// Every stage preserves the steady-state zero-allocation contract of
// ReadInto: in-place stages (Calibrate, Smooth) transform the caller's
// batch columns directly, and re-batching stages (Resample, RateLimit)
// fill the caller's batch from one reused internal scratch batch — no
// per-sample, per-block or per-call allocations once array capacities
// are warm.
//
// Stage constructors panic on invalid parameters (a non-positive rate, a
// zero time constant): like source.NewPolled, these are construction-time
// wiring errors, not runtime conditions. simsetup's fleet-spec parser
// validates before constructing, so bad specs surface as errors there.
package pipeline

import (
	"slices"
	"time"

	"repro/internal/obs"
	"repro/internal/source"
)

// Stages names every stage kind by the backend "+suffix" tag the stage
// adds in derive, in the order Hists indexes them.
var Stages = [...]string{"resample", "calib", "ratelimit", "smooth",
	"dropout", "stuck", "spike", "skew", "jitter"}

// Hists holds one ReadInto latency histogram per stage kind, indexed like
// Stages, deepening the cumulative overhead-seconds counter
// (source.Overheader) into a distribution. Each observation spans the
// stage's whole ReadInto — the inner source's read included — so an outer
// stage's distribution dominates the stages below it, mirroring how
// RateLimit's Overhead already accounts nesting. The histograms are
// obs.Hist: lock-free and allocation-free to record, so the stages keep
// their steady-state zero-allocation contract. A fleet manager owns one
// Hists and binds every station's chain to it, so two managers in one
// process keep separate counts.
type Hists [len(Stages)]obs.Hist

// Bind points every stage of src's chain at h, so each records its
// ReadInto latency into its kind's histogram. The walk starts at src and
// goes inward through the stages this package built; it stops at the
// first source that is not one — the backend, or another package's
// wrapper, whose stages below then stay unbound. An unbound stage records
// nothing. Stages are single-goroutine confined, so Bind belongs before
// the first read.
func (h *Hists) Bind(src source.Source) {
	for {
		s, ok := src.(staged)
		if !ok {
			return
		}
		w := s.base()
		w.hist = &h[w.kind]
		src = w.inner
	}
}

// staged is implemented by every stage through its embedded wrap.
type staged interface{ base() *wrap }

// Stage derives a new source from an inner one. Stages returned by this
// package wrap the inner source in place — they do not copy its stream —
// and are single-goroutine confined exactly like the Source they
// implement.
type Stage func(source.Source) source.Source

// Chain applies stages to src in order: Chain(s, A, B) yields B(A(s)),
// so the first stage is innermost (closest to the backend) and the last
// one's Meta is what consumers see. With no stages it returns src
// unchanged.
func Chain(src source.Source, stages ...Stage) source.Source {
	for _, stage := range stages {
		src = stage(src)
	}
	return src
}

// wrap is the shared base of every stage: it holds the inner source, the
// stage's rewritten Meta and its kind's latency histogram once bound, and
// delegates the Source methods a stage does not transform. Stages embed
// it and override what they change.
type wrap struct {
	inner source.Source
	meta  source.Meta
	kind  int       // index into Stages
	hist  *obs.Hist // nil until Bind
}

// derive builds a stage's base from the inner source and the stage kind
// (one of Stages): the backend name gains a "+kind" tag, rateHz (when
// positive) replaces the delivered rate, and the channel labels become
// the stage's own copy so no slice is shared across the layer boundary.
func derive(inner source.Source, kind string, rateHz float64) wrap {
	m := inner.Meta()
	m.Backend += "+" + kind
	if rateHz > 0 {
		m.RateHz = rateHz
	}
	m.Channels = append([]string(nil), m.Channels...)
	return wrap{inner: inner, meta: m, kind: slices.Index(Stages[:], kind)}
}

func (w *wrap) base() *wrap { return w }

// record adds one ReadInto latency to the stage's bound histogram.
func (w *wrap) record(d time.Duration) {
	if w.hist != nil {
		w.hist.Record(d)
	}
}

// Meta implements source.Source with the stage's rewritten metadata.
func (w *wrap) Meta() source.Meta { return w.meta }

// Now implements source.Source.
func (w *wrap) Now() time.Duration { return w.inner.Now() }

// Joules implements source.Source: rate conversion, throttling and
// smoothing all conserve energy, so the backend's own counter stays the
// truth. Calibrate overrides this — a gain/offset overlay rescales
// energy too.
func (w *wrap) Joules() float64 { return w.inner.Joules() }

// Resyncs implements source.Source.
func (w *wrap) Resyncs() int { return w.inner.Resyncs() }

// Close implements source.Source.
func (w *wrap) Close() { w.inner.Close() }

// Overhead implements source.Overheader by forwarding the accounting of
// whatever stage below carries it, so a RateLimit buried under further
// stages still surfaces through the top of the chain. Stages that do not
// account overhead contribute zero.
func (w *wrap) Overhead() time.Duration {
	if o, ok := w.inner.(source.Overheader); ok {
		return o.Overhead()
	}
	return 0
}

// Restart implements source.Restarter by forwarding the fleet watchdog's
// recovery attempt to whatever backend below can act on it, so a
// restartable source stays restartable under any stack of stages. With no
// Restarter below there is nothing to reset — stages themselves hold only
// derived state — and the attempt trivially succeeds.
func (w *wrap) Restart() error {
	if r, ok := w.inner.(source.Restarter); ok {
		return r.Restart()
	}
	return nil
}
