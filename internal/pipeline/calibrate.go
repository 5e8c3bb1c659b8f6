package pipeline

import (
	"time"

	"repro/internal/source"
)

// Calibrate overlays a uniform gain/offset on every channel:
// w' = gain*w + offset per channel, with the summed-power column
// recomputed from the calibrated rows. It is the software counterpart of
// re-trimming a sensor's current/voltage gains (the paper's Section III-C
// calibration) without reflashing: the raw station keeps serving the
// factory trim while a derived view serves the corrected stream.
//
// Because a gain/offset overlay rescales energy too, Calibrate does not
// delegate Joules: it integrates the calibrated summed power over the
// inter-sample gaps itself, so Status.Joules of a calibrated station
// reports calibrated energy.
func Calibrate(gain, offset float64) Stage {
	return func(inner source.Source) source.Source {
		return &calibrator{
			wrap:   derive(inner, "calib", 0),
			gain:   gain,
			offset: offset,
			lastT:  inner.Now(),
		}
	}
}

type calibrator struct {
	wrap
	gain, offset float64
	lastT        time.Duration // timestamp of the last calibrated sample
	joule        float64       // calibrated energy integral
}

// ReadInto implements source.Source: the inner source fills the caller's
// batch directly and the overlay is applied in place in the batch fold —
// no scratch batch, no copies, no allocations. An inner error passes
// through after the samples that did arrive are calibrated, so a partial
// batch stays consistent with the delivered stream.
func (c *calibrator) ReadInto(d time.Duration, b *source.Batch) error {
	began := time.Now()
	err := c.inner.ReadInto(d, b)
	stride := b.Stride()
	n := b.Len()
	for i := 0; i < n; i++ {
		row := b.Chans[i*stride : (i+1)*stride]
		var total float64
		for m, w := range row {
			w = c.gain*w + c.offset
			row[m] = w
			total += w
		}
		b.Total[i] = total
		t := b.Time[i]
		c.joule += total * (t - c.lastT).Seconds()
		c.lastT = t
	}
	c.record(time.Since(began))
	return err
}

// Joules implements source.Source with the calibrated energy integral,
// accumulated at the delivered rate (the same native-rate integration a
// vendor counter performs).
func (c *calibrator) Joules() float64 { return c.joule }
