package fleet

// Tests for the long-horizon history tier's fleet wiring: windowed
// energy queries against the backends' own energy integrals, history
// written at the step across ring wraparound, query behaviour through
// station churn, and queries racing the step workers.

import (
	"math"
	"testing"
	"time"

	"repro/internal/pmt"
	"repro/internal/simsetup"
)

// TestEnergyWindowMatchesBackendJoules is the cross-backend ground
// truth: over the same virtual-time window, the history tier's
// trapezoidal integral of block-averaged ring points must agree with
// the backend's own cumulative energy integral (Status.Joules deltas)
// within 1% — on an instrumented 20 kHz rig, a slow software meter and
// the synthetic station alike.
func TestEnergyWindowMatchesBackendJoules(t *testing.T) {
	for _, kind := range []string{"synth", "rtx4000ada", "rapl"} {
		t.Run(kind, func(t *testing.T) {
			src, err := simsetup.NewStation(kind, 42)
			if err != nil {
				t.Fatal(err)
			}
			m := NewManager(Config{})
			defer m.Close()
			d, err := m.Add("gt0", kind, src)
			if err != nil {
				t.Fatal(err)
			}
			// Warm past the first ring point so the window interior is
			// fully inside the stored series.
			m.StepAll(200 * time.Millisecond)
			st1 := d.Status()
			m.StepAll(2 * time.Second)
			st2 := d.Status()
			m.StepAll(100 * time.Millisecond)

			got := d.EnergyWindow(st1.Now, st2.Now)
			want := st2.Joules - st1.Joules
			if want <= 0 {
				t.Fatalf("backend integrated no energy over the window (%v J)", want)
			}
			if rel := math.Abs(got-want) / want; rel > 0.01 {
				t.Fatalf("EnergyWindow(%v, %v) = %v J, backend says %v J (%.2f%% off, want <= 1%%)",
					st1.Now, st2.Now, got, want, rel*100)
			}
		})
	}
}

// TestEnergyWindowSpansRingBoundary pins the tier's reason to exist:
// with a 64-point ring (64 ms of points), a window reaching far behind
// the ring's retention still answers exactly, because every point the
// steps produced lives on in the compressed series.
func TestEnergyWindowSpansRingBoundary(t *testing.T) {
	m := NewManager(Config{RingCap: 64})
	defer m.Close()
	d, err := m.Add("ringed", "stub", &stubSource{})
	if err != nil {
		t.Fatal(err)
	}
	var j1, j2 float64
	var t1, t2 time.Duration
	for now := time.Duration(0); now < 2*time.Second; now += 20 * time.Millisecond {
		m.StepAll(20 * time.Millisecond)
		switch st := d.Status(); st.Now {
		case 100 * time.Millisecond:
			j1, t1 = st.Joules, st.Now
		case 1900 * time.Millisecond:
			j2, t2 = st.Joules, st.Now
		}
	}
	if hs := d.HistoryStats(); hs.Points <= 64 {
		t.Fatalf("history holds %d points — not past the 64-point ring, boundary untested", hs.Points)
	}
	// The window's first 1736 ms lie behind the ring's 64 ms retention:
	// only the history tier can answer it. The stub holds 60 W flat, so
	// the trapezoid is exact and must match the backend's own integral.
	got := d.EnergyWindow(t1, t2)
	want := j2 - j1
	if rel := math.Abs(got-want) / want; rel > 1e-9 {
		t.Fatalf("EnergyWindow(%v, %v) = %v J across the ring boundary, backend says %v J",
			t1, t2, got, want)
	}
}

// TestRingWraparoundLosesNothing pins history written at the step: a
// 64-slot ring stepped 500 ms (~500 points) with no query in between
// wraps many times over, yet the series holds every point the ring was
// ever pushed, and its integral equals the stub's own.
func TestRingWraparoundLosesNothing(t *testing.T) {
	m := NewManager(Config{RingCap: 64})
	defer m.Close()
	d, err := m.Add("wrapped", "stub", &stubSource{})
	if err != nil {
		t.Fatal(err)
	}
	m.StepAll(500 * time.Millisecond)
	st := d.Status()
	if st.RingTotal <= 64 {
		t.Fatalf("ring pushed %d points, not past its 64 slots", st.RingTotal)
	}
	if hs := d.HistoryStats(); hs.Appended != st.RingTotal || hs.Dropped != 0 {
		t.Fatalf("history appended %d (dropped %d) of %d ring points",
			hs.Appended, hs.Dropped, st.RingTotal)
	}
	// The stub holds 60 W flat, so the trapezoid over the stored span is
	// exact: the stub's joules less what it integrated before the first
	// stored point.
	pts := d.HistoryInto(nil, 0, st.Now)
	if len(pts) == 0 {
		t.Fatal("history holds no points")
	}
	first := pts[0].Time
	got := d.EnergyWindow(0, st.Now)
	want := st.Joules - 60*first.Seconds()
	if rel := math.Abs(got-want) / want; rel > 1e-9 {
		t.Fatalf("EnergyWindow(0, %v) = %v J, stub integrated %v J", st.Now, got, want)
	}
}

// TestHistorySurvivesChurn pins retirement semantics: a handle to a
// removed station still answers energy windows over everything it
// measured (the final drain point included), and re-adopting the same
// name starts a fresh, empty series rather than resurrecting the old
// one.
func TestHistorySurvivesChurn(t *testing.T) {
	m := NewManager(Config{})
	defer m.Close()
	d, err := m.Add("churny", "stub", &stubSource{})
	if err != nil {
		t.Fatal(err)
	}
	m.StepAll(300 * time.Millisecond)
	st := d.Status()
	if err := m.Remove("churny"); err != nil {
		t.Fatal(err)
	}
	// The retired handle: close flushed the partial block into the ring
	// and the series, so the full measured span is still queryable.
	got := d.EnergyWindow(0, st.Now)
	if rel := math.Abs(got-st.Joules) / st.Joules; rel > 0.01 {
		t.Fatalf("retired station EnergyWindow = %v J, lifetime Joules %v (%.2f%% off)",
			got, st.Joules, rel*100)
	}
	hsOld := d.HistoryStats()
	if hsOld.Points == 0 {
		t.Fatal("retired station lost its history points")
	}

	// Same name re-adopted: a brand-new series, empty until it measures.
	d2, err := m.Add("churny", "stub", &stubSource{})
	if err != nil {
		t.Fatal(err)
	}
	if hs := d2.HistoryStats(); hs.Appended != 0 {
		t.Fatalf("re-adopted station inherited %d appended points", hs.Appended)
	}
	m.StepAll(50 * time.Millisecond)
	if j := d2.EnergyWindow(0, 50*time.Millisecond); j <= 0 {
		t.Fatalf("re-adopted station EnergyWindow = %v J after 50 ms at 60 W", j)
	}
	// The old handle's answer is unchanged by its successor's life.
	if again := d.EnergyWindow(0, st.Now); again != got {
		t.Fatalf("retired handle's answer drifted: %v J then %v J", got, again)
	}
}

// TestFleetEnergyWindowZeroIntervalContract propagates the pmt.Watts
// zero-interval contract up through the fleet layer: empty and inverted
// windows are exactly 0 J on devices and on the manager aggregate.
func TestFleetEnergyWindowZeroIntervalContract(t *testing.T) {
	m := NewManager(Config{})
	defer m.Close()
	d, err := m.Add("z", "stub", &stubSource{})
	if err != nil {
		t.Fatal(err)
	}
	m.StepAll(100 * time.Millisecond)
	mid := 50 * time.Millisecond
	if j := d.EnergyWindow(mid, mid); j != 0 {
		t.Fatalf("empty window = %v J, want exactly 0", j)
	}
	if j := d.EnergyWindow(mid, mid-time.Millisecond); j != 0 {
		t.Fatalf("inverted window = %v J, want exactly 0", j)
	}
	if j := m.EnergyWindow(mid, mid); j != 0 {
		t.Fatalf("manager empty window = %v J, want exactly 0", j)
	}
}

// TestManagerHistoryStatsAggregates checks the fleet-wide aggregate sums
// across stations and that the shared query latency histogram advances.
func TestManagerHistoryStatsAggregates(t *testing.T) {
	m := NewManager(Config{})
	defer m.Close()
	for _, name := range []string{"a0", "a1", "a2"} {
		if _, err := m.Add(name, "stub", &stubSource{}); err != nil {
			t.Fatal(err)
		}
	}
	m.StepAll(100 * time.Millisecond)
	hs := m.HistoryStats()
	if hs.Points == 0 || hs.Bytes == 0 {
		t.Fatalf("aggregate stats empty after stepping: %+v", hs)
	}
	var per uint64
	for _, name := range []string{"a0", "a1", "a2"} {
		per += m.Device(name).HistoryStats().Points
	}
	if hs.Points != per {
		t.Fatalf("aggregate points %d != per-station sum %d", hs.Points, per)
	}
	m.EnergyWindow(0, 100*time.Millisecond)
	if m.HistoryQueryHist().Count() == 0 {
		t.Fatal("query histogram never recorded a window query")
	}
}

// TestHistoryQueriesDuringStepAll races full-span decodes and energy
// windows against the parallel shard workers appending at every step,
// across block seals: queries copy what they read under the series lock
// and decode outside it, so each answer must still be a consistent
// prefix of the stub's flat 60 W series — strictly ascending points,
// exact watts, and an integral matching the span it covers.
func TestHistoryQueriesDuringStepAll(t *testing.T) {
	m := stubFleet(t, stepParallelMin, 8)
	m.StepAll(50 * time.Millisecond)
	d := m.Device("s0")
	stop := make(chan struct{})
	stepped := make(chan struct{})
	go func() {
		defer close(stepped)
		for {
			select {
			case <-stop:
				return
			default:
				m.StepAll(5 * time.Millisecond)
			}
		}
	}()
	defer func() {
		close(stop)
		<-stepped
	}()
	deadline := time.Now().Add(time.Minute)
	for i := 0; i < 200 || d.HistoryStats().Blocks < 2; i++ {
		if time.Now().After(deadline) {
			t.Fatalf("%d queries in a minute saw %d sealed blocks, want 2",
				i, d.HistoryStats().Blocks)
		}
		pts := d.HistoryInto(nil, 0, time.Hour)
		if len(pts) < 2 {
			t.Fatalf("full-span decode returned %d points", len(pts))
		}
		for k, p := range pts {
			if p.Watts != 60 || (k > 0 && p.Time <= pts[k-1].Time) {
				t.Fatalf("point %d of %d = %+v after %+v", k, len(pts), p, pts[max(k-1, 0)])
			}
		}
		first, last := pts[0].Time, pts[len(pts)-1].Time
		got := d.EnergyWindow(first, last)
		if want := 60 * (last - first).Seconds(); math.Abs(got-want) > 1e-9*want {
			t.Fatalf("EnergyWindow(%v, %v) = %v J, want %v J", first, last, got, want)
		}
	}
}

// TestEnergyWindowAgreesWithPMTInterval is the tentpole's shared-stream
// check: a fleet station and a pmt.SourceMeter built over identical
// deterministic sources (same kind, same seed) must agree — the
// interval-read model (two Reads bracketing the window) and the
// streaming model (history EnergyWindow) measure the same energy.
func TestEnergyWindowAgreesWithPMTInterval(t *testing.T) {
	streamSrc, err := simsetup.NewStation("rapl", 77)
	if err != nil {
		t.Fatal(err)
	}
	intervalSrc, err := simsetup.NewStation("rapl", 77)
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(Config{})
	defer m.Close()
	d, err := m.Add("twin", "rapl", streamSrc)
	if err != nil {
		t.Fatal(err)
	}
	meter := pmt.NewSourceMeter("rapl", intervalSrc)

	m.StepAll(200 * time.Millisecond)
	s1 := meter.Read(200 * time.Millisecond)
	m.StepAll(2 * time.Second)
	s2 := meter.Read(2200 * time.Millisecond)
	m.StepAll(100 * time.Millisecond)

	got := d.EnergyWindow(s1.Time, s2.Time)
	want := pmt.Joules(s1, s2)
	if want <= 0 {
		t.Fatalf("interval meter saw no energy (%v J)", want)
	}
	if rel := math.Abs(got-want) / want; rel > 0.01 {
		t.Fatalf("EnergyWindow = %v J, pmt interval read says %v J (%.2f%% off, want <= 1%%)",
			got, want, rel*100)
	}
}
