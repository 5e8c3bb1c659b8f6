// Federation failure-mode tests: httptest leaves running real fleet
// managers behind a kill switch, a head polling them through its real
// client/breaker/render path. Each test drives one failure the subsystem
// exists to absorb — a leaf down at head start, a leaf dying mid-poll
// and recovering, a flapping breaker stepped by an injected clock, a
// slow leaf hitting its per-leaf timeout without delaying the round, and
// duplicate station names across leaves.

package federation_test

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/export"
	"repro/internal/federation"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/simsetup"
)

// killableLeaf wraps a real leaf handler behind a kill switch. Down, it
// hijacks and closes the connection — the wire-level failure a crashed
// daemon produces, not a polite error page. It can also hold responses
// to play a leaf slower than the head's per-poll timeout.
type killableLeaf struct {
	h     http.Handler
	down  atomic.Bool
	delay atomic.Int64 // nanoseconds to hold each response

	mu       sync.Mutex
	requests int
	conds    int // requests carrying If-None-Match
}

func (k *killableLeaf) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	k.mu.Lock()
	k.requests++
	if r.Header.Get("If-None-Match") != "" {
		k.conds++
	}
	k.mu.Unlock()
	if k.down.Load() {
		if hj, ok := w.(http.Hijacker); ok {
			if conn, _, err := hj.Hijack(); err == nil {
				conn.Close()
				return
			}
		}
		http.Error(w, "leaf down", http.StatusBadGateway)
		return
	}
	if d := time.Duration(k.delay.Load()); d > 0 {
		select {
		case <-time.After(d):
		case <-r.Context().Done():
			return
		}
	}
	k.h.ServeHTTP(w, r)
}

func (k *killableLeaf) conditional() int {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.conds
}

// fakeClock is an injectable poller clock for stepping breaker cooldowns.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// newLeaf builds a real leaf — fleet manager, exporter, HTTP server —
// behind a kill switch. The fleet steps 20 ms of virtual time so the
// first poll already sees data.
func newLeaf(t testing.TB, spec string) (*fleet.Manager, *killableLeaf, *httptest.Server) {
	t.Helper()
	mgr, err := fleet.FromSpec(spec, 1, fleet.Config{RingCap: 128})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mgr.Close)
	mgr.StepAll(20 * time.Millisecond)
	kl := &killableLeaf{h: export.New(mgr).Handler()}
	srv := httptest.NewServer(kl)
	t.Cleanup(srv.Close)
	return mgr, kl, srv
}

func newHead(t testing.TB, cfg federation.Config) *federation.Head {
	t.Helper()
	h, err := federation.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// get fetches a head endpoint through its real handler.
func get(t testing.TB, h http.Handler, path string) (int, string) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	b, err := io.ReadAll(rec.Result().Body)
	if err != nil {
		t.Fatal(err)
	}
	return rec.Code, string(b)
}

func fleetView(t testing.TB, h http.Handler) federation.HeadFleetJSON {
	t.Helper()
	code, body := get(t, h, "/api/fleet")
	if code != http.StatusOK {
		t.Fatalf("GET /api/fleet: status %d", code)
	}
	var v federation.HeadFleetJSON
	if err := json.Unmarshal([]byte(body), &v); err != nil {
		t.Fatalf("decode head /api/fleet: %v", err)
	}
	return v
}

// metricLine asserts body holds a sample line `name{labels} value`.
func metricLine(t testing.TB, body, line string) {
	t.Helper()
	if !strings.Contains(body, line+"\n") {
		t.Errorf("metrics body missing %q", line)
	}
}

// TestHeadLeafDownAtStart: one leaf never existed. The head still
// serves — the live leaf's stations fresh, the dead leaf at
// powersensor_leaf_up 0 with zero stations — and logs the leaf as down.
func TestHeadLeafDownAtStart(t *testing.T) {
	_, _, good := newLeaf(t, "a0=synth,a1=synth")
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close() // connection refused from the first poll

	head := newHead(t, federation.Config{
		Leaves: []federation.Leaf{
			{Name: "good", URL: good.URL},
			{Name: "dead", URL: deadURL},
		},
		Timeout: 200 * time.Millisecond,
		Retries: -1,
	})
	head.PollOnce(context.Background())

	if up := head.UpCount(); up != 1 {
		t.Fatalf("UpCount = %d, want 1", up)
	}
	code, body := get(t, head.Handler(), "/metrics")
	if code != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", code)
	}
	metricLine(t, body, `powersensor_leaf_up{leaf="good"} 1`)
	metricLine(t, body, `powersensor_leaf_up{leaf="dead"} 0`)
	metricLine(t, body, `powersensor_leaf_stations{leaf="dead"} 0`)
	if !strings.Contains(body, `powersensor_board_watts{leaf="good",device="a0"}`) {
		t.Error("live leaf's stations missing from merged exposition")
	}

	v := fleetView(t, head.Handler())
	if len(v.Leaves) != 2 || len(v.Devices) != 2 {
		t.Fatalf("merged view: %d leaves, %d devices; want 2, 2", len(v.Leaves), len(v.Devices))
	}
	for _, li := range v.Leaves {
		if li.Leaf == "dead" && (li.Up || li.LastError == "") {
			t.Errorf("dead leaf info = %+v, want down with an error", li)
		}
	}
	// One live leaf keeps the head healthy.
	if code, _ := get(t, head.Handler(), "/healthz"); code != http.StatusOK {
		t.Errorf("healthz with one live leaf: status %d, want 200", code)
	}

	var sawDown, sawUp bool
	for _, ev := range head.Events().Tail(0) {
		if ev.Type == obs.EventLeaf && ev.Station == "dead" && ev.Reason == "down" {
			sawDown = true
		}
		if ev.Type == obs.EventLeaf && ev.Station == "good" && ev.Reason == "up" {
			sawUp = true
		}
	}
	if !sawDown || !sawUp {
		t.Errorf("event ring missing lifecycle entries: sawDown=%v sawUp=%v", sawDown, sawUp)
	}
}

// TestHeadLeafDiesAndRecovers is the acceptance-criterion test: the head
// keeps answering /metrics and /api/fleet while its only leaf is killed
// and restarted, with powersensor_leaf_up tracking 1 → 0 → 1 and the
// dead episode serving the last-known stations marked stale.
func TestHeadLeafDiesAndRecovers(t *testing.T) {
	mgr, kl, srv := newLeaf(t, "s0=synth,s1=synth,s2=synth")
	head := newHead(t, federation.Config{
		Leaves:        []federation.Leaf{{Name: "l0", URL: srv.URL}},
		Timeout:       200 * time.Millisecond,
		Retries:       -1,
		FailThreshold: 100, // keep the breaker out of this test's way
	})
	ctx := context.Background()
	h := head.Handler()

	// Alive: fresh stations, leaf up.
	head.PollOnce(ctx)
	_, body := get(t, h, "/metrics")
	metricLine(t, body, `powersensor_leaf_up{leaf="l0"} 1`)
	metricLine(t, body, `powersensor_station_health{leaf="l0",device="s0"} 0`)
	v := fleetView(t, h)
	if len(v.Devices) != 3 || v.Devices[0].Stale || v.Devices[0].Health != fleet.HealthHealthy {
		t.Fatalf("live view = %+v, want 3 fresh healthy stations", v.Devices)
	}

	// Killed: the head still answers both endpoints; the stations serve
	// as last-known, marked stale, and leaf_up drops to 0.
	kl.down.Store(true)
	head.PollOnce(ctx)
	code, body := get(t, h, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("GET /metrics with leaf dead: status %d", code)
	}
	metricLine(t, body, `powersensor_leaf_up{leaf="l0"} 0`)
	metricLine(t, body, `powersensor_station_health{leaf="l0",device="s0"} 3`)
	if !strings.Contains(body, `powersensor_board_watts{leaf="l0",device="s0"}`) {
		t.Error("dead leaf's last-known stations vanished from the exposition")
	}
	v = fleetView(t, h)
	if len(v.Devices) != 3 {
		t.Fatalf("dead-leaf view has %d devices, want last-known 3", len(v.Devices))
	}
	for _, d := range v.Devices {
		if !d.Stale || d.Health != fleet.HealthStale {
			t.Errorf("station %s during outage: stale=%v health=%q, want stale", d.Name, d.Stale, d.Health)
		}
	}
	// Sole leaf down: the whole downstream is dark, healthz degrades.
	if code, _ := get(t, h, "/healthz"); code != http.StatusServiceUnavailable {
		t.Errorf("healthz with every leaf down: status %d, want 503", code)
	}

	// Restarted: fresh again. The fleet moved while the head was blind;
	// recovery refetches in full and re-renders.
	mgr.StepAll(20 * time.Millisecond)
	kl.down.Store(false)
	head.PollOnce(ctx)
	_, body = get(t, h, "/metrics")
	metricLine(t, body, `powersensor_leaf_up{leaf="l0"} 1`)
	metricLine(t, body, `powersensor_station_health{leaf="l0",device="s0"} 0`)
	v = fleetView(t, h)
	for _, d := range v.Devices {
		if d.Stale || d.Health == fleet.HealthStale {
			t.Errorf("station %s after recovery still stale", d.Name)
		}
	}

	// The episode logged exactly up, down, up.
	var transitions []string
	for _, ev := range head.Events().Tail(0) {
		if ev.Type == obs.EventLeaf && ev.Station == "l0" {
			transitions = append(transitions, ev.Reason)
		}
	}
	if want := []string{"up", "down", "up"}; !equalStrings(transitions, want) {
		t.Errorf("leaf lifecycle events = %v, want %v", transitions, want)
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestHeadBreakerFlapping steps a flapping leaf through the breaker's
// full cycle with an injected clock: failures open it, open rounds cost
// no poll, the cooldown admits a half-open probe, and a successful probe
// closes it — each transition logged to the event ring.
func TestHeadBreakerFlapping(t *testing.T) {
	_, kl, srv := newLeaf(t, "f0=synth")
	clock := &fakeClock{t: time.Unix(5000, 0)}
	head := newHead(t, federation.Config{
		Leaves:        []federation.Leaf{{Name: "flap", URL: srv.URL}},
		Timeout:       200 * time.Millisecond,
		Retries:       -1,
		FailThreshold: 2,
		OpenFor:       10 * time.Second,
		Now:           clock.Now,
	})
	ctx := context.Background()

	head.PollOnce(ctx) // healthy baseline
	kl.down.Store(true)
	head.PollOnce(ctx)
	head.PollOnce(ctx) // second consecutive failure opens the breaker

	v := fleetView(t, head.Handler())
	if v.Leaves[0].Breaker != "open" {
		t.Fatalf("breaker after %d failures = %q, want open", v.Leaves[0].ConsecutiveFailures, v.Leaves[0].Breaker)
	}
	pollsWhenOpened := v.Leaves[0].Polls

	// Open: rounds inside the cooldown never reach the wire.
	head.PollOnce(ctx)
	head.PollOnce(ctx)
	v = fleetView(t, head.Handler())
	if v.Leaves[0].Polls != pollsWhenOpened {
		t.Fatalf("open breaker let polls through: %d -> %d", pollsWhenOpened, v.Leaves[0].Polls)
	}

	// Cooldown over, leaf back: the single half-open probe closes it.
	clock.Advance(10 * time.Second)
	kl.down.Store(false)
	head.PollOnce(ctx)
	v = fleetView(t, head.Handler())
	if v.Leaves[0].Breaker != "closed" || !v.Leaves[0].Up {
		t.Fatalf("after successful probe: breaker=%q up=%v, want closed and up", v.Leaves[0].Breaker, v.Leaves[0].Up)
	}

	var states []string
	for _, ev := range head.Events().Tail(0) {
		if ev.Type == obs.EventBreaker {
			states = append(states, ev.Reason)
		}
	}
	if want := []string{"open", "half-open", "closed"}; !equalStrings(states, want) {
		t.Errorf("breaker events = %v, want %v", states, want)
	}
}

// TestHeadSlowLeafTimeout: a leaf slower than its per-poll timeout fails
// at the deadline instead of delaying the round — the fast leaf stays
// fresh and the whole round finishes far sooner than the slow leaf would
// ever answer.
func TestHeadSlowLeafTimeout(t *testing.T) {
	_, slow, slowSrv := newLeaf(t, "slow0=synth")
	_, _, fastSrv := newLeaf(t, "fast0=synth")
	slow.delay.Store(int64(5 * time.Second))

	head := newHead(t, federation.Config{
		Leaves: []federation.Leaf{
			{Name: "slow", URL: slowSrv.URL},
			{Name: "fast", URL: fastSrv.URL},
		},
		Timeout: 100 * time.Millisecond,
		Retries: -1,
		Workers: 2,
	})
	began := time.Now()
	head.PollOnce(context.Background())
	if took := time.Since(began); took > 2*time.Second {
		t.Fatalf("round with a 5s leaf took %v, want bounded by the 100ms per-leaf timeout", took)
	}
	_, body := get(t, head.Handler(), "/metrics")
	metricLine(t, body, `powersensor_leaf_up{leaf="fast"} 1`)
	metricLine(t, body, `powersensor_leaf_up{leaf="slow"} 0`)
	if !strings.Contains(body, `powersensor_board_watts{leaf="fast",device="fast0"}`) {
		t.Error("fast leaf's stations missing while the slow leaf timed out")
	}
}

// TestHeadDuplicateStationNames: the same station name on two leaves
// stays two distinct series (the leaf label) and two distinct merged
// JSON entries (the leaf field) — no renaming, no last-writer-wins.
func TestHeadDuplicateStationNames(t *testing.T) {
	_, _, a := newLeaf(t, "gpu0=synth")
	_, _, b := newLeaf(t, "gpu0=synth")
	head := newHead(t, federation.Config{
		Leaves: []federation.Leaf{
			{Name: "rack-a", URL: a.URL},
			{Name: "rack-b", URL: b.URL},
		},
		Timeout: 200 * time.Millisecond,
		Retries: -1,
	})
	head.PollOnce(context.Background())

	_, body := get(t, head.Handler(), "/metrics")
	for _, leaf := range []string{"rack-a", "rack-b"} {
		series := `powersensor_board_watts{leaf="` + leaf + `",device="gpu0"}`
		if !strings.Contains(body, series) {
			t.Errorf("merged exposition missing %s", series)
		}
	}

	v := fleetView(t, head.Handler())
	owners := map[string]int{}
	for _, d := range v.Devices {
		if d.Name == "gpu0" {
			owners[d.Leaf]++
		}
	}
	if owners["rack-a"] != 1 || owners["rack-b"] != 1 {
		t.Errorf("merged view owners of gpu0 = %v, want one per leaf", owners)
	}
}

// TestHeadCachedSegments: polls of a quiet leaf ride If-None-Match to a
// 304 and re-render nothing; a fleet that actually moves re-renders
// exactly once per generation change.
func TestHeadCachedSegments(t *testing.T) {
	mgr, kl, srv := newLeaf(t, "q0=synth,q1=synth")
	head := newHead(t, federation.Config{
		Leaves:  []federation.Leaf{{Name: "l0", URL: srv.URL}},
		Timeout: 200 * time.Millisecond,
		Retries: -1,
	})
	ctx := context.Background()

	head.PollOnce(ctx)
	head.PollOnce(ctx)
	head.PollOnce(ctx)
	_, body := get(t, head.Handler(), "/metrics")
	metricLine(t, body, `powersensor_leaf_renders_total{leaf="l0"} 1`)
	metricLine(t, body, `powersensor_leaf_polls_total{leaf="l0"} 3`)
	if conds := kl.conditional(); conds < 2 {
		t.Errorf("conditional polls = %d, want the 2nd and 3rd to carry If-None-Match", conds)
	}

	// The fleet moves: the next poll sees a new generation and re-renders.
	mgr.StepAll(20 * time.Millisecond)
	head.PollOnce(ctx)
	_, body = get(t, head.Handler(), "/metrics")
	metricLine(t, body, `powersensor_leaf_renders_total{leaf="l0"} 2`)
}

// TestHeadProxyDevice: per-device drill-downs route to the owning leaf,
// unknown leaves 404, and a down leaf answers 503 immediately instead of
// timing the client out.
func TestHeadProxyDevice(t *testing.T) {
	_, kl, srv := newLeaf(t, "p0=synth")
	head := newHead(t, federation.Config{
		Leaves:  []federation.Leaf{{Name: "l0", URL: srv.URL}},
		Timeout: 200 * time.Millisecond,
		Retries: -1,
	})
	head.PollOnce(context.Background())
	h := head.Handler()

	code, body := get(t, h, "/api/device/l0/p0/trace?format=json&points=4")
	if code != http.StatusOK {
		t.Fatalf("proxied trace: status %d, body %q", code, body)
	}
	if !strings.Contains(body, `"points"`) {
		t.Errorf("proxied trace body is not the leaf's trace payload: %q", body)
	}

	if code, _ := get(t, h, "/api/device/nosuch/p0/trace"); code != http.StatusNotFound {
		t.Errorf("unknown leaf: status %d, want 404", code)
	}

	kl.down.Store(true)
	head.PollOnce(context.Background())
	if code, _ := get(t, h, "/api/device/l0/p0/trace"); code != http.StatusServiceUnavailable {
		t.Errorf("down leaf: status %d, want 503", code)
	}
}

// TestHeadPollLoop exercises Start/Stop around the real ticker: the loop
// polls on its own, and Stop drains without racing a round in flight.
func TestHeadPollLoop(t *testing.T) {
	_, _, srv := newLeaf(t, "r0=synth")
	head := newHead(t, federation.Config{
		Leaves:   []federation.Leaf{{Name: "l0", URL: srv.URL}},
		Interval: 10 * time.Millisecond,
		Timeout:  200 * time.Millisecond,
		Retries:  -1,
	})
	head.Start()
	deadline := time.Now().Add(5 * time.Second)
	for head.Rounds() < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	head.Stop()
	if r := head.Rounds(); r < 3 {
		t.Fatalf("poll loop completed %d rounds in 5s, want >= 3", r)
	}
	if head.UpCount() != 1 {
		t.Fatal("leaf not up after the poll loop ran")
	}
	head.Stop() // idempotent
}

// TestHeadConfigRejects pins New's validation: no leaves, empty names,
// missing URLs and duplicate names all fail loudly.
func TestHeadConfigRejects(t *testing.T) {
	cases := []federation.Config{
		{},
		{Leaves: []federation.Leaf{{Name: "", URL: "x:1"}}},
		{Leaves: []federation.Leaf{{Name: "a", URL: ""}}},
		{Leaves: []federation.Leaf{{Name: "a", URL: "x:1"}, {Name: "a", URL: "y:1"}}},
	}
	for i, cfg := range cases {
		if _, err := federation.New(cfg); err == nil {
			t.Errorf("case %d: New accepted invalid config %+v", i, cfg)
		}
	}
}

// within runs f and fails the test if it has not returned after d — for
// calls whose failure mode is a hang rather than an error.
func within(t *testing.T, d time.Duration, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s still running after %v", what, d)
	}
}

// TestHeadMalformedLeafBody: a leaf serving a station with more per-pair
// readings than pairs is refused at decode, through the normal failure
// path — the poll returns, the failure is counted, the leaf reads down,
// and the head's /metrics keeps serving. Rendering such a status would
// index past the station's label blocks while the leaf's lock is held.
func TestHeadMalformedLeafBody(t *testing.T) {
	const skewed = `{"schema":1,"generation":7,"devices":[{"name":"x","backend":"b","kind":"k","pairs":1,"channels":["c"],"pair_watts":[1,2,3]}]}`
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, skewed)
	}))
	t.Cleanup(srv.Close)
	head := newHead(t, federation.Config{
		Leaves:  []federation.Leaf{{Name: "l0", URL: srv.URL}},
		Timeout: 200 * time.Millisecond,
		Retries: -1,
	})
	within(t, 5*time.Second, "PollOnce over a malformed leaf", func() {
		head.PollOnce(context.Background())
	})
	rec := httptest.NewRecorder()
	within(t, 5*time.Second, "head /metrics", func() {
		head.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("head /metrics: status %d", rec.Code)
	}
	body := rec.Body.String()
	metricLine(t, body, `powersensor_leaf_poll_failures_total{leaf="l0"} 1`)
	metricLine(t, body, `powersensor_leaf_up{leaf="l0"} 0`)
	metricLine(t, body, `powersensor_leaf_consecutive_failures{leaf="l0"} 1`)
	if strings.Contains(body, `device="x"`) {
		t.Error("refused leaf body still rendered its station")
	}
}

// TestHeadLeafReadoptsNewBackend: a leaf retires a station and adopts a
// different one under the same name with the same channel shape (one
// "board" channel, nvml then amdsmi). Both the leaf's own /metrics and
// the head's merged /metrics must serve the new backend's labels on the
// next render, not the cached block of the retired station.
func TestHeadLeafReadoptsNewBackend(t *testing.T) {
	mgr, _, srv := newLeaf(t, "x0=nvml")
	head := newHead(t, federation.Config{
		Leaves:  []federation.Leaf{{Name: "l0", URL: srv.URL}},
		Timeout: 200 * time.Millisecond,
		Retries: -1,
	})
	ctx := context.Background()
	leafInfo := func(backend string) string {
		return `powersensor_source_info{device="x0",backend="` + backend + `",kind="` + backend + `"} 1`
	}
	headInfo := func(backend string) string {
		return `powersensor_source_info{leaf="l0",device="x0",backend="` + backend + `",kind="` + backend + `"} 1`
	}
	leafMetrics := func() string {
		t.Helper()
		resp, err := http.Get(srv.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	head.PollOnce(ctx)
	metricLine(t, leafMetrics(), leafInfo("nvml"))
	_, body := get(t, head.Handler(), "/metrics")
	metricLine(t, body, headInfo("nvml"))

	if err := mgr.Remove("x0"); err != nil {
		t.Fatal(err)
	}
	src, err := simsetup.NewStation("amdsmi", 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Add("x0", "amdsmi", src); err != nil {
		src.Close()
		t.Fatal(err)
	}
	mgr.StepAll(20 * time.Millisecond)

	leafBody := leafMetrics()
	metricLine(t, leafBody, leafInfo("amdsmi"))
	if strings.Contains(leafBody, `backend="nvml"`) {
		t.Error("leaf serves the retired station's nvml labels")
	}
	head.PollOnce(ctx)
	_, body = get(t, head.Handler(), "/metrics")
	metricLine(t, body, headInfo("amdsmi"))
	if strings.Contains(body, `backend="nvml"`) {
		t.Error("head serves the retired station's nvml labels")
	}
}

// BenchmarkHeadScrape measures the head's merged /metrics with quiet
// leaves: every per-leaf fleet section is served from its cached
// segment, so the scrape is segment memcpys plus the self-telemetry
// tail. The export-side BenchmarkLeafRender is the per-generation render
// this cache avoids.
func BenchmarkHeadScrape(b *testing.B) {
	for _, stations := range []int{64, 256} {
		per := stations / 2
		b.Run(sizeName(stations), func(b *testing.B) {
			specs := [2]string{leafSpec(0, per), leafSpec(1, per)}
			var leaves []federation.Leaf
			for li := 0; li < 2; li++ {
				mgr, err := fleet.FromSpec(specs[li], 1, fleet.Config{RingCap: 128})
				if err != nil {
					b.Fatal(err)
				}
				defer mgr.Close()
				mgr.StepAll(20 * time.Millisecond)
				srv := httptest.NewServer(export.New(mgr).Handler())
				defer srv.Close()
				leaves = append(leaves, federation.Leaf{
					Name: "leaf" + string(rune('0'+li)), URL: srv.URL,
				})
			}
			head, err := federation.New(federation.Config{
				Leaves:  leaves,
				Timeout: time.Second,
			})
			if err != nil {
				b.Fatal(err)
			}
			head.PollOnce(context.Background())
			h := head.Handler()
			req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					b.Fatalf("status %d", rec.Code)
				}
			}
		})
	}
}

func sizeName(n int) string {
	switch n {
	case 64:
		return "64"
	default:
		return "256"
	}
}

func leafSpec(leaf, stations int) string {
	var sb strings.Builder
	for i := 0; i < stations; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString("l")
		sb.WriteByte(byte('0' + leaf))
		sb.WriteString("s")
		for _, d := range []byte{byte('0' + i/100%10), byte('0' + i/10%10), byte('0' + i%10)} {
			sb.WriteByte(d)
		}
		sb.WriteString("=synth")
	}
	return sb.String()
}
