package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/pipeline"
	"repro/internal/source"
)

// testFixture is a hand-built recording: n samples at 1 kHz with slightly
// uneven timestamps, two channels and marks on samples 4 and n-2.
func testFixture(t *testing.T, n int) *fixture {
	t.Helper()
	fx := &fixture{kind: "test", meta: source.Meta{Backend: "test", RateHz: 1000,
		Channels: []string{"a", "b"}}}
	at := 3 * time.Millisecond
	for i := 0; i < n; i++ {
		at += time.Millisecond + time.Duration(i%3)*time.Microsecond
		a, b := float64(i), 0.5*float64(i%7)
		fx.time = append(fx.time, at)
		fx.chans = append(fx.chans, a, b)
		fx.total = append(fx.total, a+b)
	}
	fx, err := finishFixture(fx, []int{4, n - 2})
	if err != nil {
		t.Fatal(err)
	}
	return fx
}

// TestReplayRoundTrip replays two loops of a recording: each loop equals
// the recording shifted in time, timestamps keep increasing across the
// seam, marks recur, and Joules is the integral of what was delivered.
func TestReplayRoundTrip(t *testing.T) {
	const n = 40
	fx := testFixture(t, n)
	r := newReplay(fx, 0)
	var b source.Batch
	var times []time.Duration
	var totals, chans []float64
	var marks []int
	for len(times) < 2*n {
		if err := r.ReadInto(3*time.Millisecond, &b); err != nil {
			t.Fatal(err)
		}
		for _, m := range b.Marks {
			marks = append(marks, len(times)+m)
		}
		times = append(times, b.Time...)
		totals = append(totals, b.Total...)
		chans = append(chans, b.Chans...)
	}
	for i := 0; i < 2*n; i++ {
		src := i % n
		want := fx.time[src] - fx.time[0] + fx.period + time.Duration(i/n)*fx.loop
		if times[i] != want {
			t.Fatalf("sample %d at %v, want %v", i, times[i], want)
		}
		if totals[i] != fx.total[src] || chans[2*i] != fx.chans[2*src] || chans[2*i+1] != fx.chans[2*src+1] {
			t.Fatalf("sample %d differs from recorded sample %d", i, src)
		}
		if i > 0 && times[i] <= times[i-1] {
			t.Fatalf("timestamps not increasing at %d: %v after %v", i, times[i], times[i-1])
		}
	}
	if want := []int{4, n - 2, n + 4, 2*n - 2}; len(marks) < 4 || !reflect.DeepEqual(marks[:4], want) {
		t.Fatalf("marks at %v, want %v first", marks, want)
	}
	var joules float64
	for i := 1; i < len(times); i++ {
		joules += (totals[i-1] + totals[i]) / 2 * (times[i] - times[i-1]).Seconds()
	}
	if got := r.Joules(); math.Abs(got-joules) > 1e-9*joules {
		t.Fatalf("Joules %v, want %v", got, joules)
	}
	if r.Now() < times[len(times)-1] {
		t.Fatalf("clock %v behind the last sample %v", r.Now(), times[len(times)-1])
	}
}

// TestReplayOffset starts a replay mid-recording: the first sample is the
// one at the offset, one period after zero, and the seam stays ordered.
func TestReplayOffset(t *testing.T) {
	const n, off = 20, 13
	fx := testFixture(t, n)
	r := newReplay(fx, off+3*n)
	var b source.Batch
	if err := r.ReadInto(time.Duration(n)*time.Millisecond+fx.loop, &b); err != nil {
		t.Fatal(err)
	}
	if b.Len() < n {
		t.Fatalf("read %d samples, want at least %d", b.Len(), n)
	}
	if b.Time[0] != fx.period || b.Total[0] != fx.total[off] {
		t.Fatalf("first sample %v W at %v, want %v W at %v", b.Total[0], b.Time[0], fx.total[off], fx.period)
	}
	for i := 1; i < b.Len(); i++ {
		if b.Time[i] <= b.Time[i-1] {
			t.Fatalf("timestamps not increasing at %d", i)
		}
		if b.Total[i] != fx.total[(off+i)%n] {
			t.Fatalf("sample %d is not recorded sample %d", i, (off+i)%n)
		}
	}
}

// TestRecordedFixtures records every base kind through its simulator
// source: each replays with the source's metadata, and one seed gives
// one set of fixtures.
func TestRecordedFixtures(t *testing.T) {
	a, err := recordFixtures(7, 300*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	b, err := recordFixtures(7, 300*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range baseKinds {
		fx := a[kind]
		if fx == nil || len(fx.time) < 2 {
			t.Fatalf("%s: no fixture", kind)
		}
		if m := newReplay(fx, 0).Meta(); m.RateHz != fx.meta.RateHz || !reflect.DeepEqual(m.Channels, fx.meta.Channels) {
			t.Errorf("%s: replay meta %+v, recording %+v", kind, m, fx.meta)
		}
		if !reflect.DeepEqual(fx.time, b[kind].time) || !reflect.DeepEqual(fx.total, b[kind].total) {
			t.Errorf("%s: two recordings from one seed differ", kind)
		}
	}
}

type plainSource struct{ source.Source }

type overheadSource struct{ source.Source }

func (overheadSource) Overhead() time.Duration { return 7 * time.Millisecond }

type restartSource struct {
	source.Source
	restarts *int
}

func (s restartSource) Restart() error { *s.restarts++; return nil }

type bothSource struct {
	source.Source
	restarts *int
}

func (bothSource) Overhead() time.Duration { return 7 * time.Millisecond }
func (s bothSource) Restart() error        { *s.restarts++; return nil }

// TestTimedWrapperKeepsInterfaces checks the timing wrapper implements
// source.Overheader and source.Restarter exactly when the wrapped source
// does, forwards both, and counts what it reads.
func TestTimedWrapperKeepsInterfaces(t *testing.T) {
	fx := testFixture(t, 10)
	restarts := 0
	cases := []struct {
		name string
		src  source.Source
		o, r bool
	}{
		{"plain", plainSource{newReplay(fx, 0)}, false, false},
		{"overheader", overheadSource{newReplay(fx, 0)}, true, false},
		{"restarter", restartSource{newReplay(fx, 0), &restarts}, false, true},
		{"both", bothSource{newReplay(fx, 0), &restarts}, true, true},
		{"pipeline", pipeline.Chain(newReplay(fx, 0), pipeline.Smooth(time.Millisecond)), true, true},
	}
	for _, c := range cases {
		tr := newTracer()
		w := wrapTimed(c.src, tr, layerSource, false, true)
		o, isO := w.(source.Overheader)
		r, isR := w.(source.Restarter)
		if isO != c.o || isR != c.r {
			t.Errorf("%s: wrapper Overheader=%t Restarter=%t, source %t %t", c.name, isO, isR, c.o, c.r)
			continue
		}
		if isO && o.Overhead() != c.src.(source.Overheader).Overhead() {
			t.Errorf("%s: Overhead not forwarded", c.name)
		}
		if isR && c.name != "pipeline" {
			before := restarts
			if err := r.Restart(); err != nil || restarts != before+1 {
				t.Errorf("%s: Restart not forwarded", c.name)
			}
		}
		var b source.Batch
		if err := w.ReadInto(5*time.Millisecond, &b); err != nil {
			t.Fatal(err)
		}
		if got := tr.reads.srcSamples.Load(); got != int64(b.Len()) || got == 0 {
			t.Errorf("%s: counted %d samples, read %d", c.name, got, b.Len())
		}
	}
}

// TestWorkloadsSmoke runs every workload briefly on a tiny fleet,
// untraced and traced: nothing fails and every named metric is emitted.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs each workload for seconds")
	}
	for _, w := range workloadNames {
		for _, traced := range []bool{false, true} {
			var out bytes.Buffer
			if err := run(&out, w, 3, 1500*time.Millisecond, traced, 0.02); err != nil {
				t.Fatalf("%s traced=%t: %v", w, traced, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s traced=%t: last line: %v", w, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%t: correct=%t, %d failed of %d\n%s",
					w, traced, res.Correct, res.Failed, res.Attempted, out.String())
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%t: %d metrics, want %d", w, traced, len(res.Metrics), len(defs))
			}
			for _, m := range defs {
				if got, ok := res.Metrics[m.name]; !ok || got.Unit != m.unit {
					t.Errorf("%s traced=%t: metric %s = %+v, want unit %s", w, traced, m.name, got, m.unit)
				}
			}
			if !strings.Contains(out.String(), "\nerror_ratio ") {
				t.Errorf("%s traced=%t: no error_ratio line", w, traced)
			}
		}
	}
}

// TestScaledToNominalHost checks that a phase measured on a host at half
// the nominal speed reads as on the nominal host: times halve, rates
// double, counts and sizes stay.
func TestScaledToNominalHost(t *testing.T) {
	ph := &phase{stats: newLoadStats(), ages: []float64{4, 8}, rates: []float64{10, 30},
		elapsed: time.Second, delta: counts{samples: 7}, heapMiB: 3}
	ph.stats.lat["scrape"] = []float64{2, 6}
	ph.stats.attempted = 5
	got := ph.scaled(2)
	if !reflect.DeepEqual(got.stats.lat["scrape"], []float64{1, 3}) || !reflect.DeepEqual(got.ages, []float64{2, 4}) ||
		!reflect.DeepEqual(got.rates, []float64{20, 60}) || got.elapsed != time.Second/2 {
		t.Errorf("scaled by 2: lat %v ages %v rates %v elapsed %v", got.stats.lat["scrape"], got.ages, got.rates, got.elapsed)
	}
	if got.delta != ph.delta || got.heapMiB != 3 || got.attempted() != 5 {
		t.Errorf("scaled by 2: counts %+v heap %g attempted %d, want them as measured", got.delta, got.heapMiB, got.attempted())
	}
	if !reflect.DeepEqual(ph.rates, []float64{10, 30}) || ph.stats.lat["scrape"][0] != 2 {
		t.Errorf("scaling changed the measured phase: rates %v", ph.rates)
	}
}

// TestBenchmarkJSON checks the benchmark definition at the repository
// root names workloads this program runs and exactly the metrics it
// reports.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	runs := map[string]bool{}
	for _, w := range workloadNames {
		runs[w] = true
	}
	if len(spec.Workloads) < 2 {
		t.Errorf("%d workloads, want at least two", len(spec.Workloads))
	}
	for _, w := range spec.Workloads {
		if !runs[w.Name] {
			t.Errorf("workload %s: program runs %v", w.Name, workloadNames)
		}
	}
	for _, c := range []struct {
		kind string
		got  []metric
		defs []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.got) != len(c.defs) {
			t.Errorf("%s: %d metrics, program reports %d", c.kind, len(c.got), len(c.defs))
			continue
		}
		for i, m := range c.got {
			if m.Name != c.defs[i].name || m.Unit != c.defs[i].unit {
				t.Errorf("%s[%d]: %s %s, program reports %s %s", c.kind, i, m.Name, m.Unit,
					c.defs[i].name, c.defs[i].unit)
			}
		}
	}
}
