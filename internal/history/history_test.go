package history

import (
	"math"
	"testing"
	"time"

	"repro/internal/rng"
)

// synthSeries appends n points at the given cadence starting at start,
// with watts produced by f, into a fresh series built from cfg. It
// returns the series plus the raw times/values for reference checks.
func synthSeries(cfg Config, n int, start, cadence time.Duration, f func(i int) float64) (*Series, []time.Duration, []float64) {
	s := New(cfg)
	times := make([]time.Duration, n)
	watts := make([]float64, n)
	for i := 0; i < n; i++ {
		t := start + time.Duration(i)*cadence
		w := f(i)
		s.Append(t, w)
		times[i], watts[i] = t, w
	}
	return s, times, watts
}

func TestRoundTripLossless(t *testing.T) {
	r := rng.New(42)
	// Irregular cadence, noisy values, several sealed blocks: the codec
	// must reproduce both columns bit-exactly when quantisation is off.
	cfg := Config{Quantum: -1, BlockPoints: 64}
	s := New(cfg)
	n := 1000
	times := make([]time.Duration, n)
	watts := make([]float64, n)
	tm := time.Duration(0)
	for i := 0; i < n; i++ {
		tm += time.Millisecond + time.Duration(r.Intn(500))*time.Microsecond
		w := 40 + 40*r.Float64()
		if r.Intn(10) == 0 {
			w = 0 // rails idle to exactly zero sometimes
		}
		times[i], watts[i] = tm, w
		s.Append(tm, w)
	}
	pts := s.PointsInto(nil, 0, tm)
	if len(pts) != n {
		t.Fatalf("decoded %d points, want %d", len(pts), n)
	}
	for i, p := range pts {
		if p.Time != times[i] {
			t.Fatalf("point %d time %v, want %v", i, p.Time, times[i])
		}
		if p.Watts != watts[i] {
			t.Fatalf("point %d watts %v, want %v (bit-exact)", i, p.Watts, watts[i])
		}
	}
}

func TestQuantisationBound(t *testing.T) {
	r := rng.New(7)
	s := New(Config{BlockPoints: 128}) // default quantum
	n := 2000
	want := make([]float64, n)
	for i := 0; i < n; i++ {
		w := 55 + 10*r.Float64()
		want[i] = w
		s.Append(time.Duration(i)*time.Millisecond, w)
	}
	pts := s.PointsInto(nil, 0, time.Duration(n)*time.Millisecond)
	if len(pts) != n {
		t.Fatalf("decoded %d points, want %d", len(pts), n)
	}
	for i, p := range pts {
		if math.Abs(p.Watts-want[i]) > DefaultQuantum/2+1e-12 {
			t.Fatalf("point %d quantisation error %v exceeds quantum/2", i, p.Watts-want[i])
		}
	}
}

func TestAppendRejectsNonMonotonic(t *testing.T) {
	s := New(Config{})
	s.Append(time.Second, 10)
	s.Append(time.Second, 11)           // zero interval: refused
	s.Append(500*time.Millisecond, 12)  // rewound: refused
	s.Append(1500*time.Millisecond, 13) // fine
	s.Append(1500*time.Millisecond, 14) // zero interval again
	if st := s.Stats(); st.Points != 2 || st.Dropped != 3 {
		t.Fatalf("points=%d dropped=%d, want 2 and 3", st.Points, st.Dropped)
	}
	// The refused zero-interval points must not poison derived rates:
	// the stored series has strictly increasing timestamps.
	pts := s.PointsInto(nil, 0, 2*time.Second)
	for i := 1; i < len(pts); i++ {
		if pts[i].Time <= pts[i-1].Time {
			t.Fatalf("stored timestamps not strictly increasing: %v then %v",
				pts[i-1].Time, pts[i].Time)
		}
	}
}

func TestEnergyWindowMatchesIntegrate(t *testing.T) {
	r := rng.New(11)
	// Lossless so the reference integral over the raw inputs is exact.
	s, times, watts := synthSeries(Config{Quantum: -1, BlockPoints: 32}, 500,
		10*time.Millisecond, time.Millisecond,
		func(i int) float64 { return 60 + 20*math.Sin(float64(i)/9) })
	_ = watts
	span := times[len(times)-1] - times[0]
	for trial := 0; trial < 200; trial++ {
		// Windows with edges landing between points, on points, outside
		// the stored span, and spanning sealed-block boundaries.
		from := times[0] + time.Duration(r.Intn(int(span)))
		to := from + time.Duration(r.Intn(int(span)))
		got := s.EnergyWindow(from, to)
		want := Integrate(times, watts, from, to)
		if math.IsNaN(got) {
			t.Fatalf("EnergyWindow(%v, %v) is NaN", from, to)
		}
		if diff := math.Abs(got - want); diff > 1e-9*(1+math.Abs(want)) {
			t.Fatalf("EnergyWindow(%v, %v) = %v, want %v (diff %v)", from, to, got, want, diff)
		}
	}
}

func TestEnergyWindowZeroIntervalContract(t *testing.T) {
	s, times, _ := synthSeries(Config{}, 100, 0, time.Millisecond,
		func(i int) float64 { return 50 })
	mid := times[50]
	for _, tc := range []struct {
		name     string
		from, to time.Duration
	}{
		{"empty", mid, mid},
		{"inverted", mid, mid - time.Millisecond},
		{"before data", -time.Second, -time.Millisecond},
		{"after data", times[99] + time.Second, times[99] + 2*time.Second},
	} {
		if j := s.EnergyWindow(tc.from, tc.to); j != 0 {
			t.Fatalf("%s window: EnergyWindow = %v, want exactly 0", tc.name, j)
		}
	}
	// An empty series answers 0 too, whatever the window.
	if j := New(Config{}).EnergyWindow(0, time.Hour); j != 0 {
		t.Fatalf("empty series EnergyWindow = %v, want 0", j)
	}
}

// snapIntegrate is the buggy integrator the clipping contract exists to
// rule out: it snaps the window edges to the nearest stored points and
// integrates whole intervals only.
func snapIntegrate(times []time.Duration, watts []float64, from, to time.Duration) float64 {
	nearest := func(x time.Duration) int {
		best, bestD := 0, time.Duration(math.MaxInt64)
		for i, tt := range times {
			d := tt - x
			if d < 0 {
				d = -d
			}
			if d < bestD {
				best, bestD = i, d
			}
		}
		return best
	}
	i, j := nearest(from), nearest(to)
	var sum float64
	for k := i + 1; k <= j; k++ {
		sum += (watts[k-1] + watts[k]) / 2 * (times[k] - times[k-1]).Seconds()
	}
	return sum
}

func TestWindowEdgeClippingNotSnapping(t *testing.T) {
	// A step waveform sampled every second: 0 W until t=5s, 100 W after.
	// The window [4.4s, 5.6s] straddles the step with both edges strictly
	// between stored points, where clipping and snapping disagree wildly.
	s, times, watts := synthSeries(Config{Quantum: -1}, 11, 0, time.Second,
		func(i int) float64 {
			if i < 5 {
				return 0
			}
			return 100
		})
	from, to := 4400*time.Millisecond, 5600*time.Millisecond
	got := s.EnergyWindow(from, to)
	// Clipped: [4.4,5] ramps 40→100 W (0.6 s × 70 W = 42 J), [5,5.6]
	// holds 100 W (60 J).
	want := 102.0
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("clipped EnergyWindow = %v J, want %v J", got, want)
	}
	snapped := snapIntegrate(times, watts, from, to)
	if rel := math.Abs(snapped-want) / want; rel < 0.05 {
		t.Fatalf("test waveform too forgiving: snapping is only %.1f%% off", rel*100)
	}
}

func TestEvictionRespectsBudget(t *testing.T) {
	cfg := Config{MaxBytes: 4096, BlockPoints: 128}
	s := New(cfg)
	n := 20000
	r := rng.New(3)
	for i := 0; i < n; i++ {
		s.Append(time.Duration(i)*time.Millisecond, 50+5*r.Float64())
	}
	st := s.Stats()
	// The budget bounds the sealed blocks; the in-progress head block may
	// carry up to one block's worth of bits on top.
	if st.Bytes > uint64(cfg.MaxBytes+blockOverhead+512) {
		t.Fatalf("footprint %d over budget %d", st.Bytes, cfg.MaxBytes)
	}
	if st.EvictedPoints == 0 {
		t.Fatal("expected evictions against a 4 KiB budget")
	}
	if st.Points+st.EvictedPoints+st.Dropped != uint64(n) {
		t.Fatalf("points %d + evicted %d != appended %d", st.Points, st.EvictedPoints, n)
	}
	pts := s.PointsInto(nil, 0, math.MaxInt64)
	if uint64(len(pts)) != st.Points {
		t.Fatalf("%d points decoded, stats hold %d", len(pts), st.Points)
	}
	first, last := pts[0].Time, pts[len(pts)-1].Time
	if first == 0 {
		t.Fatalf("held span %v..%v after eviction, want a moved-forward start", first, last)
	}
	if last != time.Duration(n-1)*time.Millisecond {
		t.Fatalf("newest bound %v, want %v", last, time.Duration(n-1)*time.Millisecond)
	}
	// Queries over the evicted span answer with what is retained: the
	// window clips to the held bounds rather than inventing data.
	j := s.EnergyWindow(0, last)
	want := s.EnergyWindow(first, last)
	if math.Abs(j-want) > 1e-9 {
		t.Fatalf("query over evicted span = %v, retained span = %v", j, want)
	}
}

func TestSteadyStateAppendZeroAlloc(t *testing.T) {
	s := New(Config{BlockPoints: 4096})
	// Warm exactly one full block so the head's bit buffer has grown to
	// steady-state capacity and a seal just finished.
	tm := time.Duration(0)
	r := rng.New(9)
	next := func() {
		tm += time.Millisecond
		s.Append(tm, 60+3*r.Float64())
	}
	for i := 0; i < 4096; i++ {
		next()
	}
	if got := s.Stats().Blocks; got != 1 {
		t.Fatalf("warmup sealed %d blocks, want 1", got)
	}
	// 513 appends (runs + AllocsPerRun's warmup call) stay inside the
	// fresh 4096-point head block: no seal, no buffer growth, and so not
	// one allocation — history appends ride the fleet's ingest step,
	// which keeps ingest's zero-alloc discipline.
	if allocs := testing.AllocsPerRun(512, next); allocs != 0 {
		t.Fatalf("steady-state append allocates %v/op, want 0", allocs)
	}
}

func TestCompressionRatioOnFleetLikeSignal(t *testing.T) {
	// The shape the downsample ring actually produces: a tens-of-watts
	// board level with workload swings and block-average noise, at a
	// fixed 1 ms cadence. The acceptance floor is 4x over flat float64.
	r := rng.New(17)
	s := New(Config{})
	n := 60000
	for i := 0; i < n; i++ {
		base := 55.0
		if (i/3000)%2 == 1 {
			base = 78 // workload plateau
		}
		w := base + 2*math.Sin(float64(i)/40) + 0.3*r.Float64()
		s.Append(time.Duration(i)*time.Millisecond, w)
	}
	st := s.Stats()
	if ratio := st.Ratio(); ratio < 4 {
		t.Fatalf("compression ratio %.2fx (%d points in %d bytes), want >= 4x",
			ratio, st.Points, st.Bytes)
	}
}

func TestPointsIntoWindow(t *testing.T) {
	s, times, _ := synthSeries(Config{BlockPoints: 16}, 100, 0, time.Millisecond,
		func(i int) float64 { return float64(i) })
	from, to := times[23], times[71]
	pts := s.PointsInto(nil, from, to)
	if len(pts) != 71-23+1 {
		t.Fatalf("window decode returned %d points, want %d", len(pts), 71-23+1)
	}
	if pts[0].Time != from || pts[len(pts)-1].Time != to {
		t.Fatalf("window decode spans %v..%v, want %v..%v",
			pts[0].Time, pts[len(pts)-1].Time, from, to)
	}
	// Appending into a reused slice extends rather than reallocating.
	again := s.PointsInto(pts[:0], from, to)
	if &again[0] != &pts[0] {
		t.Fatal("PointsInto did not reuse the destination slice")
	}
}
