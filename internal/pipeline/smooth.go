package pipeline

import (
	"fmt"
	"math"
	"time"

	"repro/internal/source"
)

// Smooth low-pass filters the stream with an exponentially weighted
// moving average of time constant tau, applied per channel and to the
// summed-power column — the streaming counterpart of the paper's block
// averaging (Table II): quantisation noise on lightly loaded rails
// shrinks while step edges survive to within ~tau. Sample timing,
// markers and the delivered rate are untouched; Joules stays the
// backend's own counter (a steady-state EWMA conserves the mean, and the
// energy truth should not depend on a display filter).
//
// The smoothing factor per sample is 1 - exp(-period/tau) at the inner
// source's native period. Smooth panics on a non-positive tau.
func Smooth(tau time.Duration) Stage {
	if tau <= 0 {
		panic(fmt.Sprintf("pipeline: Smooth needs a positive time constant, got %v", tau))
	}
	return func(inner source.Source) source.Source {
		period := 1.0 / inner.Meta().RateHz
		return &smoother{
			wrap:  derive(inner, "smooth", 0),
			alpha: 1 - math.Exp(-period/tau.Seconds()),
		}
	}
}

type smoother struct {
	wrap
	alpha  float64
	primed bool // first sample initialises the state instead of decaying from zero
	chans  [source.MaxChannels]float64
	total  float64
}

// ReadInto implements source.Source: the inner source fills the caller's
// batch directly and the EWMA replaces each row and total in place — no
// scratch batch, no allocations.
func (s *smoother) ReadInto(d time.Duration, b *source.Batch) error {
	began := time.Now()
	err := s.inner.ReadInto(d, b)
	stride := b.Stride()
	n := b.Len()
	i := 0
	if !s.primed && n > 0 {
		s.primed = true
		copy(s.chans[:stride], b.Chans[:stride])
		s.total = b.Total[0]
		i = 1
	}
	for ; i < n; i++ {
		row := b.Chans[i*stride : (i+1)*stride]
		for m, w := range row {
			s.chans[m] += s.alpha * (w - s.chans[m])
			row[m] = s.chans[m]
		}
		s.total += s.alpha * (b.Total[i] - s.total)
		b.Total[i] = s.total
	}
	s.record(time.Since(began))
	return err
}
