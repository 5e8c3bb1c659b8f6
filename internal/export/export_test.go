package export

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/simsetup"
	"repro/internal/trace"
)

// testServer serves a warmed-up 3-station fleet (PCIe GPU, SoC, SSD).
func testServer(t *testing.T) (*httptest.Server, *fleet.Manager) {
	t.Helper()
	mgr, err := fleet.FromSpec("gpu0=rtx4000ada,soc0=jetson,ssd0=ssd", 1, fleet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mgr.Close)
	mgr.StepAll(300 * time.Millisecond)
	srv := httptest.NewServer(New(mgr).Handler())
	t.Cleanup(srv.Close)
	return srv, mgr
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestMetricsPerDevice(t *testing.T) {
	srv, _ := testServer(t)
	code, body := get(t, srv.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	for _, dev := range []string{"gpu0", "soc0", "ssd0"} {
		for _, metric := range []string{
			"powersensor_board_watts", "powersensor_joules_total",
			"powersensor_samples_total", "powersensor_resyncs_total",
		} {
			if !strings.Contains(body, metric+`{device="`+dev+`"} `) {
				t.Errorf("missing %s for %s", metric, dev)
			}
		}
	}
	// Per-channel gauges: the PCIe GPU rig carries three labelled rails.
	for pair, channel := range []string{"slot3v3", "slot12", "pcie8pin"} {
		if !strings.Contains(body, fmt.Sprintf(
			`powersensor_watts{device="gpu0",pair="%d",channel="%s"} `, pair, channel)) {
			t.Errorf("missing gpu0 channel %s watts", channel)
		}
	}
	if !strings.Contains(body, "powersensor_fleet_devices 3\n") {
		t.Error("missing fleet size gauge")
	}
	// Backend kind and native rate are visible as labels on every station.
	for _, want := range []string{
		`powersensor_source_info{device="gpu0",backend="powersensor3",kind="rtx4000ada"} 1`,
		`powersensor_source_info{device="soc0",backend="powersensor3",kind="jetson"} 1`,
		`powersensor_source_rate_hz{device="gpu0"} 20000`,
	} {
		if !strings.Contains(body, want+"\n") {
			t.Errorf("missing exposition line %q", want)
		}
	}
}

// TestMetricsMixedBackends scrapes a heterogeneous fleet: software meters
// must expose their own backend kind and native rate.
func TestMetricsMixedBackends(t *testing.T) {
	mgr, err := fleet.FromSpec("gpu0=rtx4000ada,gpu0sw=nvml,cpu0=rapl", 1, fleet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mgr.Close)
	mgr.StepAll(time.Second)
	srv := httptest.NewServer(New(mgr).Handler())
	t.Cleanup(srv.Close)

	_, body := get(t, srv.URL+"/metrics")
	for _, want := range []string{
		`powersensor_source_info{device="gpu0sw",backend="nvml",kind="nvml"} 1`,
		`powersensor_source_info{device="cpu0",backend="rapl",kind="rapl"} 1`,
		`powersensor_source_rate_hz{device="gpu0sw"} 10`,
		`powersensor_source_rate_hz{device="cpu0"} 1000`,
		`powersensor_watts{device="cpu0",pair="0",channel="package"} `,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("missing exposition line %q", want)
		}
	}

	// The JSON fleet API carries the same backend metadata.
	code, body := get(t, srv.URL+"/api/fleet")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	var snap struct {
		Devices []fleet.Status `json:"devices"`
	}
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]fleet.Status)
	for _, d := range snap.Devices {
		byName[d.Name] = d
	}
	if d := byName["gpu0sw"]; d.Backend != "nvml" || d.RateHz != 10 {
		t.Errorf("gpu0sw JSON: backend=%q rate=%v", d.Backend, d.RateHz)
	}
	if d := byName["cpu0"]; d.Backend != "rapl" || d.RateHz != 1000 ||
		len(d.Channels) != 1 || d.Channels[0] != "package" {
		t.Errorf("cpu0 JSON: backend=%q rate=%v channels=%v", d.Backend, d.RateHz, d.Channels)
	}
	if d := byName["gpu0"]; d.Backend != "powersensor3" || d.RateHz != 20000 {
		t.Errorf("gpu0 JSON: backend=%q rate=%v", d.Backend, d.RateHz)
	}
}

// TestMetricsDerivedView scrapes a fleet serving raw stations next to
// piped derived views: the exposition must carry the derived backend and
// rewritten rate, and nonzero sampling overhead for the rate-limited
// meter — the acceptance surface of the pipeline layer.
func TestMetricsDerivedView(t *testing.T) {
	mgr, err := fleet.FromSpec(
		"gpu0=synth,gpu0lo=synth@0|resample:1000|calib:0.98,cpu0=rapl,cpu0lim=rapl@2|ratelimit:100",
		1, fleet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mgr.Close)
	mgr.StepAll(time.Second)
	srv := httptest.NewServer(New(mgr).Handler())
	t.Cleanup(srv.Close)

	_, body := get(t, srv.URL+"/metrics")
	for _, want := range []string{
		`powersensor_source_info{device="gpu0",backend="synthetic",kind="synth"} 1`,
		`powersensor_source_info{device="gpu0lo",backend="synthetic+resample+calib",kind="synth@0|resample:1000|calib:0.98"} 1`,
		`powersensor_source_info{device="cpu0lim",backend="rapl+ratelimit",kind="rapl@2|ratelimit:100"} 1`,
		`powersensor_source_rate_hz{device="gpu0"} 20000`,
		`powersensor_source_rate_hz{device="gpu0lo"} 1000`,
		`powersensor_source_rate_hz{device="cpu0lim"} 100`,
		`powersensor_source_overhead_seconds{device="gpu0"} 0`,
	} {
		if !strings.Contains(body, want+"\n") {
			t.Errorf("missing exposition line %q", want)
		}
	}
	// The rate-limited meter accounted real sampling overhead.
	m := regexp.MustCompile(`powersensor_source_overhead_seconds\{device="cpu0lim"\} ([0-9.e+-]+)`).
		FindStringSubmatch(body)
	if m == nil {
		t.Fatal("missing cpu0lim overhead series")
	}
	if v, err := strconv.ParseFloat(m[1], 64); err != nil || v <= 0 {
		t.Errorf("cpu0lim overhead = %q, want > 0", m[1])
	}
	// Derived stations downsample like any other: both views carry power.
	for _, dev := range []string{"gpu0lo", "cpu0lim"} {
		if !strings.Contains(body, `powersensor_board_watts{device="`+dev+`"} `) {
			t.Errorf("derived station %s has no board watts series", dev)
		}
	}
}

// TestMetricsExpositionFormat is the golden check of the text exposition:
// the exact HELP/TYPE skeleton, and every sample line well-formed.
func TestMetricsExpositionFormat(t *testing.T) {
	srv, _ := testServer(t)
	_, body := get(t, srv.URL+"/metrics")

	var comments []string
	sample := regexp.MustCompile(`^[a-z_]+(\{[a-z_]+="[^"]*"(,[a-z_]+="[^"]*")*\})? -?[0-9]+(\.[0-9]+)?(e[+-][0-9]+)?$`)
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if strings.HasPrefix(line, "# ") {
			comments = append(comments, line)
			continue
		}
		if !sample.MatchString(line) {
			t.Errorf("malformed sample line: %q", line)
		}
	}

	golden := []string{
		"# HELP powersensor_fleet_devices Stations owned by the fleet manager.",
		"# TYPE powersensor_fleet_devices gauge",
		"# HELP powersensor_fleet_adopted_total Stations ever adopted by the fleet manager.",
		"# TYPE powersensor_fleet_adopted_total counter",
		"# HELP powersensor_fleet_retired_total Stations ever retired from the fleet manager.",
		"# TYPE powersensor_fleet_retired_total counter",
		"# HELP powersensor_source_info Measurement backend serving each station; always 1.",
		"# TYPE powersensor_source_info gauge",
		"# HELP powersensor_source_rate_hz Native sample rate of each station's backend, in hertz.",
		"# TYPE powersensor_source_rate_hz gauge",
		"# HELP powersensor_source_overhead_seconds Cumulative wall time each station's source spent sampling inside ReadInto, in seconds.",
		"# TYPE powersensor_source_overhead_seconds gauge",
		"# HELP powersensor_watts Block-averaged power per measurement channel, in watts.",
		"# TYPE powersensor_watts gauge",
		"# HELP powersensor_board_watts Block-averaged summed board power per station, in watts.",
		"# TYPE powersensor_board_watts gauge",
		"# HELP powersensor_joules_total Cumulative energy per station since adoption, in joules.",
		"# TYPE powersensor_joules_total counter",
		"# HELP powersensor_samples_total Sample sets ingested per station, at the source's native rate.",
		"# TYPE powersensor_samples_total counter",
		"# HELP powersensor_marks_total Time-synced user markers ingested per station.",
		"# TYPE powersensor_marks_total counter",
		"# HELP powersensor_resyncs_total Stream bytes skipped to regain protocol alignment.",
		"# TYPE powersensor_resyncs_total counter",
		"# HELP powersensor_ring_points Downsampled points currently buffered per station.",
		"# TYPE powersensor_ring_points gauge",
		"# HELP powersensor_device_virtual_seconds Virtual time of each station's clock, in seconds.",
		"# TYPE powersensor_device_virtual_seconds gauge",
		"# HELP powersensor_station_health Watchdog health rank per station: 0 healthy, 1 degraded, 2 flatlined, 3 stale.",
		"# TYPE powersensor_station_health gauge",
		"# HELP powersensor_station_gaps_total Delivery-gap episodes the watchdog opened per station.",
		"# TYPE powersensor_station_gaps_total counter",
		"# HELP powersensor_station_flatlines_total Flatline episodes (runs of bit-identical blocks) detected per station.",
		"# TYPE powersensor_station_flatlines_total counter",
		"# HELP powersensor_station_spikes_quarantined_total Isolated glitch samples quarantined before ingest per station.",
		"# TYPE powersensor_station_spikes_quarantined_total counter",
		"# HELP powersensor_station_restarts_total Source restart attempts the watchdog issued per station.",
		"# TYPE powersensor_station_restarts_total counter",
		"# HELP powersensor_self_ingest_fold_seconds Latency of folding one ingest step's batch into the downsample state, history append included, fleet-wide, sampled 1-in-32 steps.",
		"# TYPE powersensor_self_ingest_fold_seconds histogram",
		"# HELP powersensor_self_pacing_late_seconds How far past its absolute schedule each paced fleet quantum completed; empty on unpaced fleets.",
		"# TYPE powersensor_self_pacing_late_seconds histogram",
		"# HELP powersensor_self_stage_read_seconds ReadInto latency per derived-source pipeline stage kind, inner source included; stage kinds never run are omitted.",
		"# TYPE powersensor_self_stage_read_seconds histogram",
		"# HELP powersensor_self_scrape_seconds Time to assemble one /metrics body, by serve path (full render vs cached fleet section).",
		"# TYPE powersensor_self_scrape_seconds histogram",
		"# HELP powersensor_self_scrape_cache_hits_total Scrapes whose fleet section was served from the block-generation body cache.",
		"# TYPE powersensor_self_scrape_cache_hits_total counter",
		"# HELP powersensor_self_scrape_cache_misses_total Scrapes that re-rendered at least one shard segment on a cold or stale cache.",
		"# TYPE powersensor_self_scrape_cache_misses_total counter",
		"# HELP powersensor_self_shard_renders_total Shard exposition segments re-rendered across all scrapes; one busy shard advances this by one per scrape, not by the shard count.",
		"# TYPE powersensor_self_shard_renders_total counter",
		"# HELP powersensor_self_shard_render_seconds Time to re-render one stale shard's exposition segment.",
		"# TYPE powersensor_self_shard_render_seconds histogram",
		"# HELP powersensor_self_shard_step_seconds Wall time one fleet shard spent stepping its stations through one fleet quantum, paced or StepAll.",
		"# TYPE powersensor_self_shard_step_seconds histogram",
		"# HELP powersensor_self_events_total Fleet lifecycle events ever recorded (adopt, start, retire, close).",
		"# TYPE powersensor_self_events_total counter",
		"# HELP powersensor_self_events_dropped_total Lifecycle events overwritten after the event ring filled.",
		"# TYPE powersensor_self_events_dropped_total counter",
		"# HELP powersensor_self_ring_fill_ratio Fleet-wide ring occupancy: downsampled points held over total ring capacity.",
		"# TYPE powersensor_self_ring_fill_ratio gauge",
		"# HELP powersensor_self_history_points Points held across every station's compressed long-horizon history series.",
		"# TYPE powersensor_self_history_points gauge",
		"# HELP powersensor_self_history_bytes Compressed bytes held across every station's history series.",
		"# TYPE powersensor_self_history_bytes gauge",
		"# HELP powersensor_self_history_blocks Sealed compressed blocks held across every station's history series.",
		"# TYPE powersensor_self_history_blocks gauge",
		"# HELP powersensor_self_history_compression_ratio Fleet-wide history compression ratio: raw float64 bytes over compressed bytes; 0 while empty.",
		"# TYPE powersensor_self_history_compression_ratio gauge",
		"# HELP powersensor_self_history_query_seconds Time one windowed energy query took.",
		"# TYPE powersensor_self_history_query_seconds histogram",
		"# HELP powersensor_build_info Build identity of this daemon; always 1.",
		"# TYPE powersensor_build_info gauge",
		"# HELP powersensor_scrape_duration_seconds Wall time spent rendering this scrape.",
		"# TYPE powersensor_scrape_duration_seconds gauge",
	}
	if len(comments) != len(golden) {
		t.Fatalf("comment skeleton has %d lines, want %d:\n%s",
			len(comments), len(golden), strings.Join(comments, "\n"))
	}
	for i := range golden {
		if comments[i] != golden[i] {
			t.Errorf("comment %d:\n got %q\nwant %q", i, comments[i], golden[i])
		}
	}
}

func TestFleetJSON(t *testing.T) {
	srv, _ := testServer(t)
	code, body := get(t, srv.URL+"/api/fleet")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	var snap struct {
		Devices []fleet.Status `json:"devices"`
	}
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Devices) != 3 {
		t.Fatalf("%d devices, want 3", len(snap.Devices))
	}
	for i, d := range snap.Devices {
		if d.Watts <= 0 || d.Samples == 0 {
			t.Errorf("device %s: watts=%v samples=%d", d.Name, d.Watts, d.Samples)
		}
		if i > 0 && d.Name <= snap.Devices[i-1].Name {
			t.Errorf("devices not sorted: %s after %s", d.Name, snap.Devices[i-1].Name)
		}
	}
}

func TestDeviceTraceCSV(t *testing.T) {
	srv, _ := testServer(t)
	code, body := get(t, srv.URL+"/api/device/gpu0/trace?points=50")
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	tr, err := trace.ReadCSV(strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Pairs != 3 {
		t.Errorf("pairs = %d, want 3", tr.Pairs)
	}
	if len(tr.Points) != 50 {
		t.Errorf("%d points, want 50", len(tr.Points))
	}
	if tr.Energy() <= 0 {
		t.Errorf("energy = %v, want > 0", tr.Energy())
	}
}

func TestDeviceTraceJSON(t *testing.T) {
	srv, _ := testServer(t)
	code, body := get(t, srv.URL+"/api/device/ssd0/trace?format=json")
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	tr, err := trace.ReadJSON(strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Pairs != 2 || len(tr.Points) == 0 {
		t.Errorf("pairs=%d points=%d", tr.Pairs, len(tr.Points))
	}
}

func TestDeviceTraceErrors(t *testing.T) {
	srv, _ := testServer(t)
	for url, want := range map[string]int{
		"/api/device/nope/trace":              http.StatusNotFound,
		"/api/device/gpu0/trace?format=xml":   http.StatusBadRequest,
		"/api/device/gpu0/trace?points=-1":    http.StatusBadRequest,
		"/api/device/gpu0/trace?points=bogus": http.StatusBadRequest,
	} {
		if code, _ := get(t, srv.URL+url); code != want {
			t.Errorf("%s: status %d, want %d", url, code, want)
		}
	}
}

func TestHealthAndIndex(t *testing.T) {
	srv, _ := testServer(t)
	if code, body := get(t, srv.URL+"/healthz"); code != http.StatusOK ||
		body != "{\"stations\":3,\"degraded\":0}\n" {
		t.Errorf("healthz: %d %q", code, body)
	}
	if code, body := get(t, srv.URL+"/"); code != http.StatusOK ||
		!strings.Contains(body, "3 stations") {
		t.Errorf("index: %d %q", code, body)
	}
}

// TestHealthzAllDown pins the probe's failure side: once every station
// of a non-empty fleet is stale or flatlined, /healthz flips to 503 so an
// orchestrator restarts the daemon — while one surviving station keeps it
// at 200, and an empty fleet is merely idle, not dead.
func TestHealthzAllDown(t *testing.T) {
	// A fleet whose only station's source never delivers: dropout with
	// p=1 blacks out every window, so 300 ms of silence crosses the
	// watchdog's 250 ms stale deadline and the station goes stale.
	mgr, err := fleet.FromSpec("dead0=synth|dropout:1:10ms", 1, fleet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mgr.Close)
	srv := httptest.NewServer(New(mgr).Handler())
	t.Cleanup(srv.Close)

	mgr.StepAll(300 * time.Millisecond)
	code, body := get(t, srv.URL+"/healthz")
	if code != http.StatusServiceUnavailable ||
		body != "{\"stations\":1,\"degraded\":1}\n" {
		t.Errorf("all-down healthz: %d %q, want 503 with 1/1", code, body)
	}

	// A healthy station joining the fleet restores the probe: the daemon
	// still serves real data, however sick the rest of the fleet is.
	src, err := simsetup.NewStation("synth", 99)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Add("alive0", "synth", src); err != nil {
		t.Fatal(err)
	}
	mgr.StepAll(100 * time.Millisecond)
	if code, _ := get(t, srv.URL+"/healthz"); code != http.StatusOK {
		t.Errorf("healthz with one live station: %d, want 200", code)
	}
}

// TestScrapeWhileRunning scrapes a live fleet — endpoints must be safe
// against the concurrently stepping pacer.
func TestScrapeWhileRunning(t *testing.T) {
	srv, mgr := testServer(t)
	mgr.Start()
	defer mgr.Stop()
	for i := 0; i < 5; i++ {
		if code, _ := get(t, srv.URL+"/metrics"); code != http.StatusOK {
			t.Fatalf("scrape %d: status %d", i, code)
		}
		if code, _ := get(t, srv.URL+"/api/device/gpu0/trace?points=10"); code != http.StatusOK {
			t.Fatalf("trace %d: status %d", i, code)
		}
	}
}

// TestScrapeUnderIngestLoad hammers /metrics from several goroutines
// while StepAll drives the whole fleet as fast as the host allows, and
// asserts every response stays well-formed — sample lines parse, the
// comment skeleton is complete, and per-station counters only move
// forward. This is the lock-decoupling regression test: a scrape
// assembled from the atomically published telemetry can interleave with
// ingest at any point and must never observe a torn exposition.
func TestScrapeUnderIngestLoad(t *testing.T) {
	mgr, err := fleet.FromSpec("gpu0=rtx4000ada,cpu0=rapl,s0=synth,s1=synth", 1, fleet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mgr.Close)
	mgr.StepAll(100 * time.Millisecond)
	srv := httptest.NewServer(New(mgr).Handler())
	t.Cleanup(srv.Close)

	stop := make(chan struct{})
	var steps sync.WaitGroup
	steps.Add(1)
	go func() {
		defer steps.Done()
		for {
			select {
			case <-stop:
				return
			default:
				mgr.StepAll(5 * time.Millisecond)
			}
		}
	}()

	sample := regexp.MustCompile(`^[a-z_]+(\{[a-z_]+="[^"]*"(,[a-z_]+="[^"]*")*\})? -?[0-9]+(\.[0-9]+)?(e[+-][0-9]+)?$`)
	var scrapers sync.WaitGroup
	for g := 0; g < 4; g++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			var lastSamples uint64
			for i := 0; i < 25; i++ {
				code, body := get(t, srv.URL+"/metrics")
				if code != http.StatusOK {
					t.Errorf("scrape under load: status %d", code)
					return
				}
				comments := 0
				for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
					if strings.HasPrefix(line, "# ") {
						comments++
						continue
					}
					if !sample.MatchString(line) {
						t.Errorf("malformed sample line under load: %q", line)
						return
					}
				}
				// 41 families × (HELP + TYPE).
				if comments != 76 {
					t.Errorf("scrape under load has %d comment lines, want 76", comments)
					return
				}
				m := regexp.MustCompile(`powersensor_samples_total\{device="s0"\} ([0-9]+)`).
					FindStringSubmatch(body)
				if m == nil {
					t.Error("scrape under load lost s0's samples counter")
					return
				}
				n, err := strconv.ParseUint(m[1], 10, 64)
				if err != nil || n < lastSamples {
					t.Errorf("samples counter went backwards under load: %s after %d", m[1], lastSamples)
					return
				}
				lastSamples = n
			}
		}()
	}
	scrapers.Wait()
	close(stop)
	steps.Wait()
}

// fleetSection cuts a /metrics body down to the cacheable fleet section:
// everything before the self-telemetry tail, which renders fresh on every
// scrape and so is never byte-stable across serves.
func fleetSection(t *testing.T, body string) string {
	t.Helper()
	i := strings.Index(body, "# HELP powersensor_self_ingest_fold_seconds")
	if i < 0 {
		t.Fatal("scrape body has no self-telemetry tail")
	}
	return body[:i]
}

// TestMetricsBodyCache pins the block-generation body cache: a repeat
// scrape with no new downsample block serves the previous fleet section
// verbatim, while new blocks and churn invalidate it — and the
// self-telemetry tail renders fresh even on cache hits.
func TestMetricsBodyCache(t *testing.T) {
	mgr, err := fleet.FromSpec("s0=synth,s1=synth", 1, fleet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mgr.Close)
	mgr.StepAll(50 * time.Millisecond)
	e := New(mgr)
	srv := httptest.NewServer(e.Handler())
	t.Cleanup(srv.Close)

	_, b1 := get(t, srv.URL+"/metrics")
	_, b2 := get(t, srv.URL+"/metrics")
	if hits := e.cacheHits.Load(); hits != 1 {
		t.Errorf("cache hits after repeat scrape = %d, want 1", hits)
	}
	if misses := e.cacheMisses.Load(); misses != 1 {
		t.Errorf("cache misses after first scrape = %d, want 1", misses)
	}
	if fleetSection(t, b1) != fleetSection(t, b2) {
		t.Error("repeat scrape with no new blocks re-rendered the fleet section")
	}
	// The tail is live behind the cache: the hit body carries the first
	// scrape's full render in the path="render" histogram, and both
	// cache counters as self series.
	for _, want := range []string{
		`powersensor_self_scrape_seconds_count{path="render"} 1` + "\n",
		"powersensor_self_scrape_cache_hits_total 1\n",
		"powersensor_self_scrape_cache_misses_total 1\n",
	} {
		if !strings.Contains(b2, want) {
			t.Errorf("cache-hit body missing fresh self series %q", want)
		}
	}

	// New blocks invalidate: the next scrape re-renders fresher counters.
	mgr.StepAll(5 * time.Millisecond)
	_, b3 := get(t, srv.URL+"/metrics")
	if hits := e.cacheHits.Load(); hits != 1 {
		t.Errorf("scrape after new blocks hit the cache (hits=%d)", hits)
	}
	if fleetSection(t, b3) == fleetSection(t, b1) {
		t.Error("scrape after new blocks served the stale fleet section")
	}

	// Churn invalidates: a retired station's series leave immediately.
	if err := mgr.Remove("s1"); err != nil {
		t.Fatal(err)
	}
	_, b4 := get(t, srv.URL+"/metrics")
	if hits := e.cacheHits.Load(); hits != 1 {
		t.Errorf("scrape after churn hit the cache (hits=%d)", hits)
	}
	if strings.Contains(b4, `device="s1"`) {
		t.Error("cached body leaked a retired station's series")
	}

}

// addSynth hot-adds one synthetic station to a manager, building the
// source the way cmd/psd's admin endpoint does.
func addSynth(t testing.TB, mgr *fleet.Manager, name string, seed uint64) {
	t.Helper()
	src, err := simsetup.NewStation("synth", seed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Add(name, "synth", src); err != nil {
		src.Close()
		t.Fatalf("Add(%s): %v", name, err)
	}
}

// TestMetricsRetiredAbsent: after a station retires, its series vanish
// from the exposition, the churn counters account for it, and re-adding
// the same name with a different kind re-renders fresh labels instead of
// serving the retired station's cached block.
func TestMetricsRetiredAbsent(t *testing.T) {
	mgr, err := fleet.FromSpec("s0=synth,s1=synth", 1, fleet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mgr.Close)
	mgr.StepAll(50 * time.Millisecond)
	srv := httptest.NewServer(New(mgr).Handler())
	t.Cleanup(srv.Close)

	_, body := get(t, srv.URL+"/metrics")
	if !strings.Contains(body, `device="s0"`) {
		t.Fatal("s0 missing before retirement")
	}
	if !strings.Contains(body, "powersensor_fleet_adopted_total 2\n") ||
		!strings.Contains(body, "powersensor_fleet_retired_total 0\n") {
		t.Error("churn counters wrong before retirement")
	}

	if err := mgr.Remove("s0"); err != nil {
		t.Fatal(err)
	}
	_, body = get(t, srv.URL+"/metrics")
	if strings.Contains(body, `device="s0"`) {
		t.Error("retired s0 still has series in the exposition")
	}
	if !strings.Contains(body, "powersensor_fleet_devices 1\n") ||
		!strings.Contains(body, "powersensor_fleet_adopted_total 2\n") ||
		!strings.Contains(body, "powersensor_fleet_retired_total 1\n") {
		t.Error("churn counters do not reflect the retirement")
	}

	// Reuse the retired name for a different kind: the label cache must
	// not serve the stale synthetic-backend block.
	mgr2, err := fleet.FromSpec("keep=synth", 1, fleet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mgr2.Close)
	srv2 := httptest.NewServer(New(mgr2).Handler())
	t.Cleanup(srv2.Close)
	addSynth(t, mgr2, "x0", 3)
	if _, body := get(t, srv2.URL+"/metrics"); !strings.Contains(body,
		`powersensor_source_info{device="x0",backend="synthetic",kind="synth"} 1`) {
		t.Fatal("x0 missing before rename churn")
	}
	if err := mgr2.Remove("x0"); err != nil {
		t.Fatal(err)
	}
	src, err := simsetup.NewStation("rapl", 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mgr2.Add("x0", "rapl", src); err != nil {
		t.Fatal(err)
	}
	_, body = get(t, srv2.URL+"/metrics")
	if !strings.Contains(body, `powersensor_source_info{device="x0",backend="rapl",kind="rapl"} 1`) {
		t.Error("re-added x0 serves stale cached labels")
	}
	if strings.Contains(body, `device="x0",backend="synthetic"`) {
		t.Error("retired x0's synthetic labels survived the name reuse")
	}
}

// TestLabelCacheShapeMismatch pins the label cache's one eviction rule:
// a name retired and re-adopted as a different station must render the
// new station's labels on first sight, never the cached block. A changed
// channel set must rebuild (a stale one-pair entry against a three-pair
// status would index out of range), and so must a changed backend or kind
// with the same channel shape, which no size check can notice.
func TestLabelCacheShapeMismatch(t *testing.T) {
	for _, prefix := range []string{"", "rack0"} {
		r := NewRenderer(prefix)
		render := func(s fleet.Status) *devLabels {
			t.Helper()
			s.Name = "x0"
			s.PairWatts = make([]float64, s.Pairs)
			r.Render([]fleet.Status{s})
			if len(r.resolved) != 1 {
				t.Fatalf("prefix %q: resolved %d entries, want 1", prefix, len(r.resolved))
			}
			return r.resolved[0]
		}
		render(fleet.Status{Backend: "rapl", Kind: "rapl", Pairs: 1, Channels: []string{"package"}})

		l := render(fleet.Status{Backend: "synthetic", Kind: "synth", Pairs: 3, Channels: []string{"a", "b", "c"}})
		if len(l.pairs) != 3 {
			t.Fatalf("prefix %q: stale cached entry survived shape change: %d pairs, want 3", prefix, len(l.pairs))
		}
		if !strings.Contains(l.info, `backend="synthetic"`) {
			t.Errorf("prefix %q: rebuilt entry kept stale info labels: %s", prefix, l.info)
		}

		// Same shape, new backend: the same name and one channel as the
		// seed entry, so only the identity check can catch it.
		render(fleet.Status{Backend: "rapl", Kind: "rapl", Pairs: 1, Channels: []string{"package"}})
		l = render(fleet.Status{Backend: "nvml", Kind: "nvml", Pairs: 1, Channels: []string{"package"}})
		if !strings.Contains(l.info, `backend="nvml",kind="nvml"`) {
			t.Errorf("prefix %q: same-shape re-adoption serves stale labels: %s", prefix, l.info)
		}

		// Same shape, renamed channel.
		l = render(fleet.Status{Backend: "nvml", Kind: "nvml", Pairs: 1, Channels: []string{"board"}})
		if !strings.Contains(l.pairs[0], `channel="board"`) {
			t.Errorf("prefix %q: renamed channel serves stale labels: %s", prefix, l.pairs[0])
		}
	}
}

// TestScrapeDuringChurn hammers /metrics while stations hot-add and
// retire underneath: every scrape must stay well-formed (each line
// parses, the comment skeleton is complete) and the fleet churn counters
// must be monotonic — the exposition-level contract of the dynamic
// lifecycle.
func TestScrapeDuringChurn(t *testing.T) {
	// Paced at real time: the pacer sleeps between quanta, so churners
	// and scrapers get CPU even on a single-core host. (An unpaced pacer
	// spins flat out and starves the HTTP round-trips this test needs.)
	mgr, err := fleet.FromSpec("keep0=synth,keep1=synth", 1,
		fleet.Config{Slice: time.Millisecond, Rate: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mgr.Close)
	mgr.StepAll(20 * time.Millisecond)
	mgr.Start()
	defer mgr.Stop()
	srv := httptest.NewServer(New(mgr).Handler())
	t.Cleanup(srv.Close)

	stop := make(chan struct{})
	var churn sync.WaitGroup
	for g := 0; g < 2; g++ {
		churn.Add(1)
		go func(g int) {
			defer churn.Done()
			name := fmt.Sprintf("hot%d", g)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				addSynth(t, mgr, name, uint64(i))
				if err := mgr.Remove(name); err != nil {
					t.Errorf("Remove(%s): %v", name, err)
					return
				}
				// Yield between cycles so scrapers progress on small hosts.
				time.Sleep(200 * time.Microsecond)
			}
		}(g)
	}

	sample := regexp.MustCompile(`^[a-z_]+(\{[a-z_]+="[^"]*"(,[a-z_]+="[^"]*")*\})? -?[0-9]+(\.[0-9]+)?(e[+-][0-9]+)?$`)
	counter := func(body, name string) uint64 {
		m := regexp.MustCompile(name + ` ([0-9]+)`).FindStringSubmatch(body)
		if m == nil {
			t.Errorf("scrape during churn lost %s", name)
			return 0
		}
		n, err := strconv.ParseUint(m[1], 10, 64)
		if err != nil {
			t.Errorf("unparsable %s: %v", name, err)
		}
		return n
	}
	var scrapers sync.WaitGroup
	for g := 0; g < 3; g++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			var lastAdopted, lastRetired uint64
			for i := 0; i < 40; i++ {
				code, body := get(t, srv.URL+"/metrics")
				if code != http.StatusOK {
					t.Errorf("scrape during churn: status %d", code)
					return
				}
				comments := 0
				for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
					if strings.HasPrefix(line, "# ") {
						comments++
						continue
					}
					if !sample.MatchString(line) {
						t.Errorf("malformed sample line during churn: %q", line)
						return
					}
				}
				if comments != 76 {
					t.Errorf("scrape during churn has %d comment lines, want 76", comments)
					return
				}
				adopted := counter(body, "powersensor_fleet_adopted_total")
				retired := counter(body, "powersensor_fleet_retired_total")
				if adopted < lastAdopted || retired < lastRetired {
					t.Errorf("churn counters went backwards: adopted %d->%d retired %d->%d",
						lastAdopted, adopted, lastRetired, retired)
					return
				}
				if retired > adopted {
					t.Errorf("retired %d exceeds adopted %d", retired, adopted)
					return
				}
				lastAdopted, lastRetired = adopted, retired
			}
		}()
	}
	scrapers.Wait()
	close(stop)
	churn.Wait()

	// The permanent stations survived the churn with data flowing.
	_, body := get(t, srv.URL+"/metrics")
	for _, dev := range []string{"keep0", "keep1"} {
		if !strings.Contains(body, `powersensor_board_watts{device="`+dev+`"} `) {
			t.Errorf("%s lost its series through the churn", dev)
		}
	}
}

// TestMetricsSelfTelemetry checks the self tail's content on a warmed
// fleet: the ingest fold histogram carries real observations, histogram
// invariants hold in the rendered text, and the gauges are sane.
func TestMetricsSelfTelemetry(t *testing.T) {
	srv, _ := testServer(t)
	_, body := get(t, srv.URL+"/metrics")

	// 300 ms of stepping folded many blocks; the sampled fold histogram
	// must have counted some of them.
	m := regexp.MustCompile(`powersensor_self_ingest_fold_seconds_count ([0-9]+)`).
		FindStringSubmatch(body)
	if m == nil {
		t.Fatal("missing ingest fold histogram count")
	}
	if n, _ := strconv.ParseUint(m[1], 10, 64); n == 0 {
		t.Error("ingest fold histogram empty after 300ms of stepping")
	}
	// The +Inf bucket equals _count — the histogram contract scrapers
	// (and recording rules) depend on.
	inf := regexp.MustCompile(`powersensor_self_ingest_fold_seconds_bucket\{le="\+Inf"\} ([0-9]+)`).
		FindStringSubmatch(body)
	if inf == nil || inf[1] != m[1] {
		t.Errorf("+Inf bucket %v != count %s", inf, m[1])
	}
	// Unpaced fleet: the pacing histogram renders, and renders empty.
	if !strings.Contains(body, "powersensor_self_pacing_late_seconds_count 0\n") {
		t.Error("pacing histogram missing or non-empty on an unpaced fleet")
	}
	// Lifecycle: three stations adopted, none dropped from the ring.
	if !strings.Contains(body, "powersensor_self_events_total 3\n") ||
		!strings.Contains(body, "powersensor_self_events_dropped_total 0\n") {
		t.Error("event counters do not reflect the three adoptions")
	}
	// Ring occupancy: points are buffered, rings are not full.
	fill := regexp.MustCompile(`powersensor_self_ring_fill_ratio ([0-9.e+-]+)`).
		FindStringSubmatch(body)
	if fill == nil {
		t.Fatal("missing ring fill ratio")
	}
	if v, err := strconv.ParseFloat(fill[1], 64); err != nil || v <= 0 || v > 1 {
		t.Errorf("ring fill ratio = %q, want in (0, 1]", fill[1])
	}
	if !strings.Contains(body, `powersensor_build_info{version="dev",go="`) {
		t.Error("missing build info gauge")
	}
}

// TestStageHistsPerManager: two fleets with staged stations in one
// process each serve only their own stations' stage latencies.
func TestStageHistsPerManager(t *testing.T) {
	counts := func(srv *httptest.Server) map[string]string {
		_, body := get(t, srv.URL+"/metrics")
		out := map[string]string{}
		re := regexp.MustCompile(`(?m)^powersensor_self_stage_read_seconds_count\{stage="([a-z]+)"\} ([0-9]+)$`)
		for _, m := range re.FindAllStringSubmatch(body, -1) {
			out[m[1]] = m[2]
		}
		return out
	}
	var mgrs [2]*fleet.Manager
	var srvs [2]*httptest.Server
	for i := range mgrs {
		mgr, err := fleet.FromSpec("a=synth|resample:1000|calib:0.98,b=nvml|spike:0.05:8", uint64(i+1), fleet.Config{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(mgr.Close)
		mgrs[i] = mgr
		srvs[i] = httptest.NewServer(New(mgr).Handler())
		t.Cleanup(srvs[i].Close)
	}
	mgrs[1].StepAll(100 * time.Millisecond)
	if got := counts(srvs[0]); len(got) != 0 {
		t.Errorf("unstepped fleet serves stage counts %v, want none", got)
	}
	before := counts(srvs[1])
	if len(before) != 3 {
		t.Fatalf("stepped fleet serves stage counts %v, want resample, calib and spike", before)
	}
	mgrs[0].StepAll(200 * time.Millisecond)
	if got := counts(srvs[0]); len(got) != 3 {
		t.Errorf("stepped fleet serves stage counts %v, want resample, calib and spike", got)
	}
	if after := counts(srvs[1]); !reflect.DeepEqual(after, before) {
		t.Errorf("stepping one fleet moved the other's stage counts from %v to %v", before, after)
	}
}

// TestEventsEndpoint covers /api/events: a fresh fleet's adoption events
// oldest-first, the ?n tail cap, and parameter validation.
func TestEventsEndpoint(t *testing.T) {
	srv, _ := testServer(t)
	code, body := get(t, srv.URL+"/api/events")
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var log struct {
		Total   uint64 `json:"total"`
		Dropped uint64 `json:"dropped"`
		Events  []struct {
			Seq     uint64 `json:"seq"`
			Type    string `json:"type"`
			Station string `json:"station"`
			Kind    string `json:"kind"`
			Reason  string `json:"reason"`
		} `json:"events"`
	}
	if err := json.Unmarshal([]byte(body), &log); err != nil {
		t.Fatal(err)
	}
	if log.Total != 3 || log.Dropped != 0 || len(log.Events) != 3 {
		t.Fatalf("total=%d dropped=%d events=%d, want 3/0/3",
			log.Total, log.Dropped, len(log.Events))
	}
	// FromSpec adopts in spec order; no Start ran, so adopts only.
	for i, want := range []string{"gpu0", "soc0", "ssd0"} {
		ev := log.Events[i]
		if ev.Type != "adopt" || ev.Station != want || ev.Seq != uint64(i+1) || ev.Reason != "add" {
			t.Errorf("event %d = %+v, want adopt of %s at seq %d", i, ev, want, i+1)
		}
	}

	// ?n caps the tail at the most recent events.
	_, body = get(t, srv.URL+"/api/events?n=2")
	if err := json.Unmarshal([]byte(body), &log); err != nil {
		t.Fatal(err)
	}
	if len(log.Events) != 2 || log.Events[0].Station != "soc0" || log.Events[1].Station != "ssd0" {
		t.Errorf("n=2 tail = %+v, want the two newest adoptions", log.Events)
	}
	if log.Total != 3 {
		t.Errorf("capped tail reports total %d, want 3", log.Total)
	}

	for _, q := range []string{"?n=0", "?n=-3", "?n=bogus"} {
		if code, _ := get(t, srv.URL+"/api/events"+q); code != http.StatusBadRequest {
			t.Errorf("/api/events%s: status %d, want 400", q, code)
		}
	}
}

// addFaulted hot-adds one fault-staged synthetic station, exercising the
// same kindspec grammar cmd/psd's admin endpoint accepts.
func addFaulted(t testing.TB, mgr *fleet.Manager, name, kindspec string, i int) {
	t.Helper()
	src, err := simsetup.BuildStation(kindspec, 1, i)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Add(name, kindspec, src); err != nil {
		src.Close()
		t.Fatalf("Add(%s): %v", name, err)
	}
}

// TestScrapeDuringChurnFaulted is the faulted-fleet variant of
// TestScrapeDuringChurn: every station — permanent and churned — carries
// dropout and spike stages, so scrapes race not just adoption and
// retirement but live health transitions, quarantine counters and gap
// episodes. Every scrape must stay well-formed, the health gauge must
// parse to a known severity for the permanent stations, and the
// per-station episode counters must be monotonic.
func TestScrapeDuringChurnFaulted(t *testing.T) {
	const spec = "keep0=synth|dropout:0.3:2ms|spike:0.01:5,keep1=synth|dropout:0.3:2ms|jitter:20us"
	mgr, err := fleet.FromSpec(spec, 1, fleet.Config{Slice: time.Millisecond, Rate: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mgr.Close)
	mgr.StepAll(20 * time.Millisecond)
	mgr.Start()
	defer mgr.Stop()
	srv := httptest.NewServer(New(mgr).Handler())
	t.Cleanup(srv.Close)

	stop := make(chan struct{})
	var churn sync.WaitGroup
	for g := 0; g < 2; g++ {
		churn.Add(1)
		go func(g int) {
			defer churn.Done()
			name := fmt.Sprintf("hot%d", g)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				addFaulted(t, mgr, name, "synth|dropout:0.5:1ms|stuck:0.2:5ms", i)
				if err := mgr.Remove(name); err != nil {
					t.Errorf("Remove(%s): %v", name, err)
					return
				}
				time.Sleep(200 * time.Microsecond)
			}
		}(g)
	}

	sample := regexp.MustCompile(`^[a-z_]+(\{[a-z_]+="[^"]*"(,[a-z_]+="[^"]*")*\})? -?[0-9]+(\.[0-9]+)?(e[+-][0-9]+)?$`)
	gauge := func(body, name, dev string) (float64, bool) {
		m := regexp.MustCompile(name + `\{device="` + dev + `"[^}]*\} (-?[0-9.e+]+)`).
			FindStringSubmatch(body)
		if m == nil {
			return 0, false
		}
		v, err := strconv.ParseFloat(m[1], 64)
		if err != nil {
			t.Errorf("unparsable %s for %s: %v", name, dev, err)
			return 0, false
		}
		return v, true
	}
	var scrapers sync.WaitGroup
	for g := 0; g < 3; g++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			lastGaps := map[string]float64{}
			for i := 0; i < 40; i++ {
				code, body := get(t, srv.URL+"/metrics")
				if code != http.StatusOK {
					t.Errorf("faulted scrape: status %d", code)
					return
				}
				comments := 0
				for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
					if strings.HasPrefix(line, "# ") {
						comments++
						continue
					}
					if !sample.MatchString(line) {
						t.Errorf("malformed sample line during faulted churn: %q", line)
						return
					}
				}
				if comments != 76 {
					t.Errorf("faulted scrape has %d comment lines, want 76", comments)
					return
				}
				for _, dev := range []string{"keep0", "keep1"} {
					h, ok := gauge(body, "powersensor_station_health", dev)
					if !ok {
						t.Errorf("scrape %d lost %s's health gauge", i, dev)
						return
					}
					if h != float64(int(h)) || h < 0 || h > 3 {
						t.Errorf("%s health rank = %v, want an integer in 0..3", dev, h)
						return
					}
					g, ok := gauge(body, "powersensor_station_gaps_total", dev)
					if !ok {
						t.Errorf("scrape %d lost %s's gap counter", i, dev)
						return
					}
					if g < lastGaps[dev] {
						t.Errorf("%s gaps went backwards: %v -> %v", dev, lastGaps[dev], g)
						return
					}
					lastGaps[dev] = g
				}
			}
		}()
	}
	scrapers.Wait()
	close(stop)
	churn.Wait()

	// The faulted permanent stations survived, series intact, and the run
	// demonstrably exercised the fault path: dropout p=0.3 over the whole
	// run makes gap episodes a certainty on both stations.
	_, body := get(t, srv.URL+"/metrics")
	for _, dev := range []string{"keep0", "keep1"} {
		if !strings.Contains(body, `powersensor_board_watts{device="`+dev+`"} `) {
			t.Errorf("%s lost its series through the faulted churn", dev)
		}
		if g, ok := gauge(body, "powersensor_station_gaps_total", dev); !ok || g == 0 {
			t.Errorf("%s gap counter = %v (present %v), want nonzero on a dropout-staged station",
				dev, g, ok)
		}
	}
}

// TestHealthTransitionInvalidatesCache pins the watchdog-generation fold
// in fleet.ShardGen: a station going stale freezes its ring-point count —
// the very signal the body cache keys on — so without the watchdog
// generation the cached exposition would serve the old health forever.
// One total-blackout station, no other activity: the only thing that
// changes between the scrapes is its published health.
func TestHealthTransitionInvalidatesCache(t *testing.T) {
	mgr, err := fleet.FromSpec("dead0=synth|dropout:1:10ms", 1, fleet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mgr.Close)
	srv := httptest.NewServer(New(mgr).Handler())
	t.Cleanup(srv.Close)

	mgr.StepAll(20 * time.Millisecond) // silent, but not yet stale
	_, body := get(t, srv.URL+"/metrics")
	if !strings.Contains(body, `powersensor_station_health{device="dead0"} 0`) {
		t.Fatalf("station not healthy before the stale deadline:\n%s", grepLine(body, "station_health"))
	}

	mgr.StepAll(300 * time.Millisecond) // silence crosses the 250 ms stale deadline
	_, body = get(t, srv.URL+"/metrics")
	if !strings.Contains(body, `powersensor_station_health{device="dead0"} 3`) {
		t.Errorf("stale transition did not reach the cached exposition:\n%s",
			grepLine(body, "station_health"))
	}
}

// grepLine returns body's lines containing substr, for failure messages.
func grepLine(body, substr string) string {
	var out []string
	for _, line := range strings.Split(body, "\n") {
		if strings.Contains(line, substr) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}

// TestDeviceEnergyEndpoint covers the windowed energy query API: the
// answer must match the device's own EnergyWindow, the mean power must
// be joules over the window width, and an empty window is exactly 0 J —
// the zero-interval contract surfacing over HTTP.
func TestDeviceEnergyEndpoint(t *testing.T) {
	srv, mgr := testServer(t)
	var ans struct {
		Device      string  `json:"device"`
		FromSeconds float64 `json:"from_seconds"`
		ToSeconds   float64 `json:"to_seconds"`
		Joules      float64 `json:"joules"`
		MeanWatts   float64 `json:"mean_watts"`
	}

	code, body := get(t, srv.URL+"/api/device/gpu0/energy?from=0.05&to=0.25")
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	if err := json.Unmarshal([]byte(body), &ans); err != nil {
		t.Fatal(err)
	}
	want := mgr.Device("gpu0").EnergyWindow(50*time.Millisecond, 250*time.Millisecond)
	if ans.Joules <= 0 || ans.Joules != want {
		t.Errorf("energy endpoint says %v J, device says %v J", ans.Joules, want)
	}
	if mean := ans.Joules / 0.2; ans.MeanWatts < mean*0.999 || ans.MeanWatts > mean*1.001 {
		t.Errorf("mean_watts = %v, want %v", ans.MeanWatts, mean)
	}

	// Duration-literal instants parse too, and an empty window is 0 J
	// with 0 W — never NaN.
	code, body = get(t, srv.URL+"/api/device/gpu0/energy?from=100ms&to=100ms")
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	if err := json.Unmarshal([]byte(body), &ans); err != nil {
		t.Fatal(err)
	}
	if ans.Joules != 0 || ans.MeanWatts != 0 {
		t.Errorf("empty window served %v J at %v W, want exactly 0/0", ans.Joules, ans.MeanWatts)
	}

	// Defaults: from 0 to the station's current virtual time — the
	// station's whole measured life, matching its cumulative counter
	// within the tier's 1% ground-truth bound.
	code, body = get(t, srv.URL+"/api/device/gpu0/energy")
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	if err := json.Unmarshal([]byte(body), &ans); err != nil {
		t.Fatal(err)
	}
	st := mgr.Device("gpu0").Status()
	if ans.ToSeconds != st.Now.Seconds() {
		t.Errorf("default to = %v s, want the station's now %v s", ans.ToSeconds, st.Now.Seconds())
	}
	if rel := (ans.Joules - st.Joules) / st.Joules; rel < -0.01 || rel > 0.01 {
		t.Errorf("lifetime window = %v J, station counter %v J (%.2f%% off)",
			ans.Joules, st.Joules, rel*100)
	}

	for url, wantCode := range map[string]int{
		"/api/device/nope/energy":            http.StatusNotFound,
		"/api/device/gpu0/energy?from=bogus": http.StatusBadRequest,
		"/api/device/gpu0/energy?to=-5":      http.StatusBadRequest,
	} {
		if code, _ := get(t, srv.URL+url); code != wantCode {
			t.Errorf("%s: status %d, want %d", url, code, wantCode)
		}
	}
}

// TestDeviceHistoryEndpoint covers the long-range trace export: the body
// round-trips through the trace package's own readers, carries the
// summed-power channel, respects the window, and decimates to ?points.
func TestDeviceHistoryEndpoint(t *testing.T) {
	srv, _ := testServer(t)

	code, body := get(t, srv.URL+"/api/device/gpu0/history?from=0.05&to=0.25")
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	tr, err := trace.ReadCSV(strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Pairs != 1 {
		t.Errorf("history trace pairs = %d, want the one summed channel", tr.Pairs)
	}
	if len(tr.Points) == 0 || tr.Energy() <= 0 {
		t.Fatalf("history trace has %d points, %v J", len(tr.Points), tr.Energy())
	}
	for _, p := range tr.Points {
		if p.Time < 50*time.Millisecond || p.Time > 250*time.Millisecond {
			t.Fatalf("point at %v escaped the [50ms, 250ms] window", p.Time)
		}
	}

	// ?points decimates by stride, never above the cap.
	_, body = get(t, srv.URL+"/api/device/gpu0/history?points=10")
	if tr, err = trace.ReadCSV(strings.NewReader(body)); err != nil {
		t.Fatal(err)
	}
	if len(tr.Points) == 0 || len(tr.Points) > 10 {
		t.Errorf("points=10 served %d points", len(tr.Points))
	}

	// The JSON encoding round-trips through the trace reader too.
	_, body = get(t, srv.URL+"/api/device/soc0/history?format=json")
	if tr, err = trace.ReadJSON(strings.NewReader(body)); err != nil {
		t.Fatal(err)
	}
	if tr.Pairs != 1 || len(tr.Points) == 0 {
		t.Errorf("JSON history trace: pairs=%d points=%d", tr.Pairs, len(tr.Points))
	}

	for url, wantCode := range map[string]int{
		"/api/device/nope/history":            http.StatusNotFound,
		"/api/device/gpu0/history?format=xml": http.StatusBadRequest,
		"/api/device/gpu0/history?points=0":   http.StatusBadRequest,
		"/api/device/gpu0/history?from=bogus": http.StatusBadRequest,
	} {
		if code, _ := get(t, srv.URL+url); code != wantCode {
			t.Errorf("%s: status %d, want %d", url, code, wantCode)
		}
	}
}

// TestParseWindowTime pins the ?from=/?to= grammar: plain seconds or a
// Go duration, never negative, and never a float whose conversion to a
// Duration would be undefined (NaN, ±Inf, past the Duration range) —
// each refused with a message naming what is wrong with it.
func TestParseWindowTime(t *testing.T) {
	for _, c := range []struct {
		in   string
		want time.Duration
		err  string // substring of the error; empty means success
	}{
		{in: "0", want: 0},
		{in: "-0", want: 0},
		{in: "0.25", want: 250 * time.Millisecond},
		{in: "1.5s", want: 1500 * time.Millisecond},
		{in: "250ms", want: 250 * time.Millisecond},
		{in: "9223372036.8547", want: 9223372036854700032},
		{in: "-5", err: "negative instant"},
		{in: "-1e10", err: "negative instant"},
		{in: "-1ms", err: "non-negative duration"},
		{in: "NaN", err: "non-finite instant"},
		{in: "Inf", err: "non-finite instant"},
		{in: "+Inf", err: "non-finite instant"},
		{in: "-infinity", err: "non-finite instant"},
		{in: "1e10", err: "exceeds the maximum"},
		{in: "9223372036.854775807", err: "exceeds the maximum"},
		{in: "1e400", err: "want seconds or a non-negative duration"},
		{in: "3000000h", err: "want seconds or a non-negative duration"},
		{in: "bogus", err: "want seconds or a non-negative duration"},
	} {
		got, err := parseWindowTime(c.in)
		switch {
		case c.err == "" && err != nil:
			t.Errorf("parseWindowTime(%q): %v", c.in, err)
		case c.err == "" && got != c.want:
			t.Errorf("parseWindowTime(%q) = %d, want %d", c.in, got, c.want)
		case c.err != "" && (err == nil || !strings.Contains(err.Error(), c.err)):
			t.Errorf("parseWindowTime(%q) = %v, %v; want an error containing %q", c.in, got, err, c.err)
		}
	}
}

// TestMetricsHistorySelfTelemetry checks the history tier's self tail:
// after the warm-up steps and a query the footprint gauges are live,
// the compression ratio clears the tier's 4x floor, and the query
// latency histogram carries observations.
func TestMetricsHistorySelfTelemetry(t *testing.T) {
	srv, mgr := testServer(t)
	mgr.EnergyWindow(0, 300*time.Millisecond)

	_, body := get(t, srv.URL+"/metrics")
	num := func(name string) float64 {
		m := regexp.MustCompile(name + ` ([0-9.e+-]+)`).FindStringSubmatch(body)
		if m == nil {
			t.Fatalf("missing self series %s", name)
		}
		v, err := strconv.ParseFloat(m[1], 64)
		if err != nil {
			t.Fatalf("unparsable %s: %v", name, err)
		}
		return v
	}
	if pts := num("powersensor_self_history_points"); pts == 0 {
		t.Error("history points gauge empty after stepping")
	}
	if b := num("powersensor_self_history_bytes"); b == 0 {
		t.Error("history bytes gauge empty after stepping")
	}
	if ratio := num("powersensor_self_history_compression_ratio"); ratio < 4 {
		t.Errorf("compression ratio = %v, want >= 4", ratio)
	}
	if n := num("powersensor_self_history_query_seconds_count"); n == 0 {
		t.Error("query histogram never recorded a window query")
	}
}
