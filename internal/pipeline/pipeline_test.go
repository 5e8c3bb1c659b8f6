package pipeline

import (
	"math"
	"slices"
	"testing"
	"time"

	"repro/internal/source"
)

// fake is a deterministic two-channel source: sample i (1-based) carries
// summed power watt(i), split 25/75 across the channels. Samples land on
// exact multiples of the period, so bin and spacing arithmetic in the
// stage tests is exact.
type fake struct {
	rate    float64
	now     time.Duration
	last    time.Duration
	count   int
	joule   float64
	markAt  map[int]bool // 1-based ordinals flagged as markers
	watt    func(i int) float64
	scratch [2]float64
}

func newFake(rate float64, watt func(int) float64) *fake {
	if watt == nil {
		watt = func(int) float64 { return 60 }
	}
	return &fake{rate: rate, watt: watt}
}

func (f *fake) Meta() source.Meta {
	return source.Meta{Backend: "fake", RateHz: f.rate, Channels: []string{"a", "b"}}
}
func (f *fake) Now() time.Duration { return f.now }

func (f *fake) ReadInto(d time.Duration, b *source.Batch) error {
	b.Reset(2)
	period := time.Duration(float64(time.Second) / f.rate)
	target := f.now + d
	f.now = target
	for t := f.last + period; t <= target; t += period {
		f.count++
		w := f.watt(f.count)
		f.scratch[0], f.scratch[1] = 0.25*w, 0.75*w
		b.Append(t, f.scratch[:], w)
		if f.markAt[f.count] {
			b.Mark()
		}
		f.joule += w * period.Seconds()
		f.last = t
	}
	return nil
}

func (f *fake) Joules() float64 { return f.joule }
func (f *fake) Resyncs() int    { return 0 }
func (f *fake) Close()          {}

func TestResamplePacingAndMeans(t *testing.T) {
	// 20 kHz ramp resampled to 1 kHz: each 1 ms bin averages exactly 20
	// consecutive raw samples.
	raw := newFake(20000, func(i int) float64 { return float64(i) })
	src := Chain(raw, Resample(1000))

	meta := src.Meta()
	if meta.Backend != "fake+resample" {
		t.Errorf("backend = %q", meta.Backend)
	}
	if meta.RateHz != 1000 {
		t.Errorf("rate = %v, want 1000", meta.RateHz)
	}
	if len(meta.Channels) != 2 {
		t.Errorf("channels = %v", meta.Channels)
	}

	var b source.Batch
	src.ReadInto(10*time.Millisecond, &b)
	if b.Len() != 10 {
		t.Fatalf("%d samples in 10ms at 1kHz, want 10", b.Len())
	}
	for i := 0; i < b.Len(); i++ {
		if want := time.Duration(i+1) * time.Millisecond; b.Time[i] != want {
			t.Errorf("sample %d at %v, want %v", i, b.Time[i], want)
		}
		// Bin i averages raw samples 20i+1..20i+20: mean = 20i + 10.5.
		want := float64(20*i) + 10.5
		if math.Abs(b.Total[i]-want) > 1e-9 {
			t.Errorf("sample %d total = %v, want %v", i, b.Total[i], want)
		}
		row := b.Row(i)
		if math.Abs(row[0]-0.25*want) > 1e-9 || math.Abs(row[1]-0.75*want) > 1e-9 {
			t.Errorf("sample %d row = %v, want %v split 25/75", i, row, want)
		}
	}
}

func TestResampleConservesEnergy(t *testing.T) {
	// The resampled stream's own integral (mean × bin width) must match
	// the raw stream's (sample × period), and Joules must delegate the
	// backend counter untouched.
	raw := newFake(20000, func(i int) float64 { return 40 + float64(i%640)*0.1 })
	ref := newFake(20000, func(i int) float64 { return 40 + float64(i%640)*0.1 })
	src := Chain(raw, Resample(1000))

	var b source.Batch
	var rawJ, resJ float64
	for k := 0; k < 40; k++ { // 2 s in uneven 50 ms slices
		ref.ReadInto(50*time.Millisecond, &b)
		for i := 0; i < b.Len(); i++ {
			rawJ += b.Total[i] / 20000
		}
		src.ReadInto(50*time.Millisecond, &b)
		for i := 0; i < b.Len(); i++ {
			resJ += b.Total[i] / 1000
		}
	}
	if diff := math.Abs(resJ-rawJ) / rawJ; diff > 0.01 {
		t.Errorf("resampled energy %v J vs raw %v J: %.2f%% apart", resJ, rawJ, 100*diff)
	}
	if src.Joules() != raw.Joules() {
		t.Errorf("Joules not delegated: %v vs %v", src.Joules(), raw.Joules())
	}
}

func TestResampleRemapsMarkers(t *testing.T) {
	// Raw samples 21 and 25 both land in the second 1 ms bin; the bin's
	// one output sample must carry both marks.
	raw := newFake(20000, nil)
	raw.markAt = map[int]bool{21: true, 25: true}
	src := Chain(raw, Resample(1000))
	var b source.Batch
	src.ReadInto(5*time.Millisecond, &b)
	if b.Len() != 5 {
		t.Fatalf("%d samples, want 5", b.Len())
	}
	if len(b.Marks) != 2 || b.Marks[0] != 1 || b.Marks[1] != 1 {
		t.Errorf("marks = %v, want [1 1] (two marks on output sample 1)", b.Marks)
	}
}

func TestResampleAcrossReadBoundaries(t *testing.T) {
	// Slices that do not divide the bin width: bins span ReadInto calls
	// and must still emit exactly once, in order, with nothing dropped.
	raw := newFake(20000, nil)
	src := Chain(raw, Resample(1000))
	var b source.Batch
	var times []time.Duration
	for src.Now() < 100*time.Millisecond {
		src.ReadInto(700*time.Microsecond, &b)
		times = append(times, b.Time[:b.Len()]...)
	}
	if len(times) < 99 || len(times) > 101 {
		t.Fatalf("%d resampled samples over ~100ms at 1kHz", len(times))
	}
	for i, ts := range times {
		if want := time.Duration(i+1) * time.Millisecond; ts != want {
			t.Fatalf("sample %d at %v, want %v", i, ts, want)
		}
	}
}

func TestCalibrate(t *testing.T) {
	raw := newFake(1000, func(int) float64 { return 100 }) // rows (25, 75)
	raw.markAt = map[int]bool{3: true}
	src := Chain(raw, Calibrate(2, 1))
	if got := src.Meta().Backend; got != "fake+calib" {
		t.Errorf("backend = %q", got)
	}
	var b source.Batch
	src.ReadInto(10*time.Millisecond, &b)
	if b.Len() != 10 {
		t.Fatalf("%d samples", b.Len())
	}
	for i := 0; i < b.Len(); i++ {
		row := b.Row(i)
		if row[0] != 2*25+1 || row[1] != 2*75+1 {
			t.Fatalf("sample %d row = %v, want [51 151]", i, row)
		}
		if b.Total[i] != 202 {
			t.Fatalf("sample %d total = %v, want 202", i, b.Total[i])
		}
	}
	// Markers pass through with their indices unchanged.
	if len(b.Marks) != 1 || b.Marks[0] != 2 {
		t.Errorf("marks = %v, want [2]", b.Marks)
	}
	// Calibrated energy: 202 W over 10 ms.
	if want := 202 * 0.010; math.Abs(src.Joules()-want) > 1e-9 {
		t.Errorf("joules = %v, want %v", src.Joules(), want)
	}
}

func TestRateLimit(t *testing.T) {
	// 1 kHz throttled to 100 Hz: every 10th sample passes, and a marker
	// on a dropped sample reattaches to the next kept one.
	raw := newFake(1000, nil)
	raw.markAt = map[int]bool{3: true}
	src := Chain(raw, RateLimit(100))
	if got := src.Meta().RateHz; got != 100 {
		t.Errorf("rate = %v, want 100", got)
	}
	if got := src.Meta().Backend; got != "fake+ratelimit" {
		t.Errorf("backend = %q", got)
	}
	var b source.Batch
	src.ReadInto(100*time.Millisecond, &b)
	if b.Len() != 10 {
		t.Fatalf("%d samples kept in 100ms at 100Hz, want 10", b.Len())
	}
	for i := 1; i < b.Len(); i++ {
		if gap := b.Time[i] - b.Time[i-1]; gap < 10*time.Millisecond {
			t.Errorf("samples %d-%d only %v apart, want >= 10ms", i-1, i, gap)
		}
	}
	// Raw sample 3 (3 ms, dropped) marks the kept sample at 11 ms (index 1).
	if len(b.Marks) != 1 || b.Marks[0] != 1 {
		t.Errorf("marks = %v, want [1]", b.Marks)
	}
	// Sampling overhead accrued and surfaces through Overheader.
	o, ok := src.(source.Overheader)
	if !ok {
		t.Fatal("rate-limited source does not implement Overheader")
	}
	if o.Overhead() <= 0 {
		t.Error("no sampling overhead accounted after a read")
	}
}

func TestRateLimitQuantisedRate(t *testing.T) {
	// A limit that does not divide the inner grid: min spacing 1/999 s on
	// 1 ms sample instants keeps every OTHER sample, so the delivered —
	// and advertised — rate is 500 Hz, not 999.
	raw := newFake(1000, nil)
	src := Chain(raw, RateLimit(999))
	if got := src.Meta().RateHz; got != 500 {
		t.Errorf("rate = %v, want the quantised 500", got)
	}
	var b source.Batch
	src.ReadInto(100*time.Millisecond, &b)
	if b.Len() != 50 {
		t.Errorf("%d samples kept in 100ms, want 50", b.Len())
	}
}

func TestRateLimitAboveNativeRate(t *testing.T) {
	// A limit above the native rate passes everything through and keeps
	// the native rate in Meta.
	raw := newFake(1000, nil)
	src := Chain(raw, RateLimit(1e6))
	if got := src.Meta().RateHz; got != 1000 {
		t.Errorf("rate = %v, want 1000", got)
	}
	var b source.Batch
	src.ReadInto(50*time.Millisecond, &b)
	if b.Len() != 50 {
		t.Errorf("%d samples, want all 50", b.Len())
	}
}

func TestSmooth(t *testing.T) {
	// A step input: the EWMA primes on the first sample, then converges
	// monotonically toward the new level without overshooting.
	raw := newFake(1000, func(i int) float64 {
		if i <= 10 {
			return 10
		}
		return 110
	})
	src := Chain(raw, Smooth(5*time.Millisecond))
	if got := src.Meta().Backend; got != "fake+smooth" {
		t.Errorf("backend = %q", got)
	}
	var b source.Batch
	src.ReadInto(100*time.Millisecond, &b)
	if b.Len() != 100 {
		t.Fatalf("%d samples", b.Len())
	}
	for i := 0; i < 10; i++ {
		if b.Total[i] != 10 {
			t.Fatalf("pre-step sample %d = %v, want 10", i, b.Total[i])
		}
	}
	for i := 11; i < 100; i++ {
		if b.Total[i] <= b.Total[i-1] || b.Total[i] > 110 {
			t.Fatalf("post-step sample %d = %v after %v: not monotone toward 110",
				i, b.Total[i], b.Total[i-1])
		}
	}
	// 90 samples is 18 time constants: essentially settled.
	if got := b.Total[99]; got < 109 {
		t.Errorf("settled value %v, want > 109", got)
	}
	// Channels smooth consistently with the total (same 25/75 split).
	row := b.Row(99)
	if math.Abs(row[0]-0.25*b.Total[99]) > 1e-9 {
		t.Errorf("channel 0 = %v, want %v", row[0], 0.25*b.Total[99])
	}
}

func TestChainComposition(t *testing.T) {
	raw := newFake(20000, nil)
	src := Chain(raw, Resample(1000), Calibrate(0.98, 0), Smooth(10*time.Millisecond))
	meta := src.Meta()
	if meta.Backend != "fake+resample+calib+smooth" {
		t.Errorf("backend = %q", meta.Backend)
	}
	if meta.RateHz != 1000 {
		t.Errorf("rate = %v, want 1000 (resample's, carried through)", meta.RateHz)
	}
	// No stages: identity.
	if got := Chain(raw); got != source.Source(raw) {
		t.Error("empty Chain did not return the source unchanged")
	}
	// Overhead forwards through stages stacked on a RateLimit.
	src2 := Chain(newFake(1000, nil), RateLimit(100), Smooth(50*time.Millisecond))
	var b source.Batch
	src2.ReadInto(time.Second, &b)
	if o, ok := src2.(source.Overheader); !ok || o.Overhead() <= 0 {
		t.Error("overhead accounting did not forward through the chain top")
	}
}

func TestChainSteadyStateZeroAlloc(t *testing.T) {
	// The acceptance contract: steady-state reads through a three-stage
	// chain allocate nothing once batch capacities are warm.
	src := Chain(newFake(20000, nil),
		Resample(1000), Calibrate(0.98, 0.25), Smooth(5*time.Millisecond))
	var b source.Batch
	src.ReadInto(200*time.Millisecond, &b) // warm every stage's arrays
	allocs := testing.AllocsPerRun(100, func() {
		src.ReadInto(5*time.Millisecond, &b)
	})
	if allocs != 0 {
		t.Errorf("steady-state chained ReadInto allocates %v per call, want 0", allocs)
	}
}

// TestStageHistsRecord: a chain bound to a Hists records one observation
// per ReadInto into each of its stages' kinds. A chain never bound, read
// alongside, adds nothing to it, and Bind through a wrapper that is not a
// stage binds nothing.
func TestStageHistsRecord(t *testing.T) {
	chain := func() source.Source {
		return Chain(newFake(20000, nil),
			Dropout(0.1, time.Millisecond, 1), Stuck(0.1, time.Millisecond, 2),
			Spike(0.01, 10, 3), Skew(100), Jitter(10*time.Microsecond, 4),
			Resample(1000), Calibrate(0.98, 0), RateLimit(100), Smooth(50*time.Millisecond))
	}
	var bound, hidden Hists
	src, unbound, wrapped := chain(), chain(), chain()
	bound.Bind(src)
	hidden.Bind(struct{ source.Source }{wrapped})
	const reads = 7
	var b source.Batch
	for i := 0; i < reads; i++ {
		for _, s := range []source.Source{src, unbound, wrapped} {
			s.ReadInto(10*time.Millisecond, &b)
		}
	}
	for i, kind := range Stages {
		if n := bound[i].Count(); n != reads {
			t.Errorf("stage %q recorded %d reads, want %d", kind, n, reads)
		}
		if n := hidden[i].Count(); n != 0 {
			t.Errorf("stage %q bound through a foreign wrapper recorded %d reads, want 0", kind, n)
		}
	}
	want := []string{"resample", "calib", "ratelimit", "smooth",
		"dropout", "stuck", "spike", "skew", "jitter"}
	if !slices.Equal(Stages[:], want) {
		t.Errorf("Stages = %v, want %v", Stages, want)
	}
}

func TestConstructorValidation(t *testing.T) {
	for name, fn := range map[string]func(){
		"resample-zero": func() { Resample(0) },
		"ratelimit-neg": func() { RateLimit(-1) },
		"smooth-zero":   func() { Smooth(0) },
		"dropout-p":     func() { Dropout(1.5, time.Millisecond, 1) },
		"dropout-dur":   func() { Dropout(0.5, 0, 1) },
		"stuck-p":       func() { Stuck(-0.1, time.Millisecond, 1) },
		"spike-mag-one": func() { Spike(0.5, 1, 1) },
		"spike-mag-neg": func() { Spike(0.5, -2, 1) },
		"skew-too-fast": func() { Skew(1e6) },
		"jitter-zero":   func() { Jitter(0, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic on invalid construction", name)
				}
			}()
			fn()
		}()
	}
}
