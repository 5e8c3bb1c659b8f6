package main

import (
	"fmt"
	"time"

	"repro/internal/simsetup"
	"repro/internal/source"
)

// baseKinds are the station kinds the benchmark records a fixture for:
// the four PowerSensor3 rigs (20 kHz) and the four software meters.
var baseKinds = []string{
	"rtx4000ada", "w7700", "jetson", "ssd",
	"nvml", "rapl", "amdsmi", "jetson-ina",
}

// fixture is one base kind's recorded batch stream: the columns a source
// delivered over a stretch of virtual time, replayed by every station of
// that kind so the benchmark times the daemon rather than the hardware
// simulator behind the source.
type fixture struct {
	kind   string
	meta   source.Meta
	time   []time.Duration
	chans  []float64 // sample-major, len(meta.Channels) per sample
	total  []float64
	marked []bool        // nil when the recording holds no marks
	period time.Duration // nominal sample spacing, also the loop-seam gap
	loop   time.Duration // virtual time one pass over the recording spans
}

// recordFixtures records every base kind through its public source for
// dur of virtual time. Each kind's station seed derives from seed, so the
// same seed gives the same fixtures.
func recordFixtures(seed uint64, dur time.Duration) (map[string]*fixture, error) {
	fxs := make(map[string]*fixture, len(baseKinds))
	for i, kind := range baseKinds {
		src, err := simsetup.NewStation(kind, simsetup.StationSeed(seed, i))
		if err != nil {
			return nil, err
		}
		fx, err := recordSource(kind, src, dur, 5*time.Millisecond)
		src.Close()
		if err != nil {
			return nil, err
		}
		fxs[kind] = fx
	}
	return fxs, nil
}

// recordSource reads src in slice steps for dur of virtual time and keeps
// every delivered sample.
func recordSource(kind string, src source.Source, dur, slice time.Duration) (*fixture, error) {
	meta := src.Meta()
	meta.Channels = append([]string(nil), meta.Channels...)
	fx := &fixture{kind: kind, meta: meta}
	var b source.Batch
	var marks []int
	for v := time.Duration(0); v < dur; v += slice {
		if err := src.ReadInto(slice, &b); err != nil {
			return nil, fmt.Errorf("record %s: %w", kind, err)
		}
		base := len(fx.time)
		for _, m := range b.Marks {
			marks = append(marks, base+m)
		}
		fx.time = append(fx.time, b.Time...)
		fx.chans = append(fx.chans, b.Chans...)
		fx.total = append(fx.total, b.Total...)
	}
	return finishFixture(fx, marks)
}

// finishFixture validates the recorded columns and derives the replay
// geometry: sample period from the native rate, loop length from the
// recorded span plus one period, so a replayed seam is as wide as any
// other sample gap.
func finishFixture(fx *fixture, marks []int) (*fixture, error) {
	n := len(fx.time)
	if n < 2 || fx.meta.RateHz <= 0 {
		return nil, fmt.Errorf("record %s: %d samples at %g Hz is too short to replay",
			fx.kind, n, fx.meta.RateHz)
	}
	for i := 1; i < n; i++ {
		if fx.time[i] <= fx.time[i-1] {
			return nil, fmt.Errorf("record %s: timestamps not increasing at sample %d", fx.kind, i)
		}
	}
	if len(marks) > 0 {
		fx.marked = make([]bool, n)
		for _, m := range marks {
			fx.marked[m] = true
		}
	}
	fx.period = time.Duration(float64(time.Second) / fx.meta.RateHz)
	fx.loop = fx.time[n-1] - fx.time[0] + fx.period
	return fx, nil
}

// replay serves a fixture as a source.Source on its own virtual clock,
// starting off samples into the recording and looping forever. Timestamps
// run on across loop seams, so they stay strictly increasing, and Joules
// is the trapezoidal integral of the samples delivered so far — the
// energy truth a station's history is checked against. Like the
// simulator's own sources it implements neither source.Overheader nor
// source.Restarter.
type replay struct {
	fx     *fixture
	meta   source.Meta
	stride int
	off    int // fixture index of the first replayed sample
	next   int // replay ordinal of the next sample to deliver
	shift  time.Duration
	now    time.Duration

	joules float64
	lastT  time.Duration
	lastP  float64
	primed bool
}

// newReplay returns a replay of fx starting at fixture index off (taken
// modulo the recording length). The first sample lands one period after
// virtual time zero, like a freshly opened meter's.
func newReplay(fx *fixture, off int) *replay {
	n := len(fx.time)
	off %= n
	if off < 0 {
		off += n
	}
	meta := fx.meta
	meta.Channels = append([]string(nil), fx.meta.Channels...)
	return &replay{
		fx:     fx,
		meta:   meta,
		stride: len(meta.Channels),
		off:    off,
		shift:  fx.time[off] - fx.period,
	}
}

// at maps replay ordinal k to its fixture index and replayed timestamp.
func (r *replay) at(k int) (int, time.Duration) {
	n := len(r.fx.time)
	g := r.off + k
	idx := g % n
	return idx, r.fx.time[idx] + time.Duration(g/n)*r.fx.loop - r.shift
}

func (r *replay) Meta() source.Meta  { return r.meta }
func (r *replay) Now() time.Duration { return r.now }
func (r *replay) Joules() float64    { return r.joules }
func (r *replay) Resyncs() int       { return 0 }
func (r *replay) Close()             {}

// ReadInto advances the clock by d and delivers every recorded sample
// whose replayed timestamp falls at or before the new time.
func (r *replay) ReadInto(d time.Duration, b *source.Batch) error {
	b.Reset(r.stride)
	r.now += d
	count := 0
	for {
		if _, t := r.at(r.next + count); t > r.now {
			break
		}
		count++
	}
	if count == 0 {
		return nil
	}
	base := b.Extend(count)
	fx := r.fx
	for i := 0; i < count; i++ {
		idx, t := r.at(r.next + i)
		p := fx.total[idx]
		b.Time[base+i] = t
		b.Total[base+i] = p
		copy(b.Row(base+i), fx.chans[idx*r.stride:(idx+1)*r.stride])
		if fx.marked != nil && fx.marked[idx] {
			b.Marks = append(b.Marks, base+i)
		}
		if r.primed {
			r.joules += (r.lastP + p) / 2 * (t - r.lastT).Seconds()
		}
		r.lastT, r.lastP, r.primed = t, p, true
	}
	r.next += count
	return nil
}
