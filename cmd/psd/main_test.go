package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/simsetup"
)

// TestServeFleet wires the daemon exactly as run does (minus the
// listener) and exercises every endpoint against the default mixed fleet:
// four PowerSensor3 rigs, two software meters (NVML and RAPL) and two
// derived pipeline views (a 1 kHz resampled+recalibrated twin of gpu0's
// rig, and the RAPL meter rate-limited to 100 Hz).
func TestServeFleet(t *testing.T) {
	mgr, handler, err := setup(simsetup.DefaultFleetSpec,
		1, 0, 5*time.Millisecond, 20, 4096, 8, 0, 500*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	mgr.Start()
	defer mgr.Stop()

	srv := httptest.NewServer(handler)
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	code, body := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: status %d", code)
	}
	for _, dev := range []string{"gpu0", "gpu1", "soc0", "ssd0", "gpu0sw", "cpu0",
		"gpu0lo", "cpu0lim"} {
		if !strings.Contains(body, `powersensor_joules_total{device="`+dev+`"} `) {
			t.Errorf("/metrics missing joules for %s", dev)
		}
	}
	// Per-backend kind and native rate are scrape labels; derived views
	// carry their stage-suffixed backend and rewritten rate.
	for _, want := range []string{
		`powersensor_source_info{device="gpu0",backend="powersensor3",kind="rtx4000ada"} 1`,
		`powersensor_source_info{device="gpu0sw",backend="nvml",kind="nvml"} 1`,
		`powersensor_source_info{device="cpu0",backend="rapl",kind="rapl"} 1`,
		`powersensor_source_info{device="gpu0lo",backend="powersensor3+resample+calib",kind="rtx4000ada@0|resample:1000|calib:0.98:0.25"} 1`,
		`powersensor_source_info{device="cpu0lim",backend="rapl+ratelimit",kind="rapl@5|ratelimit:100"} 1`,
		`powersensor_source_rate_hz{device="gpu0"} 20000`,
		`powersensor_source_rate_hz{device="gpu0sw"} 10`,
		`powersensor_source_rate_hz{device="cpu0"} 1000`,
		`powersensor_source_rate_hz{device="gpu0lo"} 1000`,
		`powersensor_source_rate_hz{device="cpu0lim"} 100`,
	} {
		if !strings.Contains(body, want+"\n") {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// The rate-limited meter accounts its sampling overhead as a series.
	if !strings.Contains(body, `powersensor_source_overhead_seconds{device="cpu0lim"} `) {
		t.Error("/metrics missing cpu0lim sampling overhead")
	}
	// Self-telemetry rides every scrape: the warmup steps already fed the
	// fold histogram, the default fleet's pipe stations fed the stage
	// histograms, and build info identifies the daemon.
	for _, want := range []string{
		`powersensor_self_ingest_fold_seconds_bucket{le="+Inf"} `,
		`powersensor_self_stage_read_seconds_bucket{stage="resample",le="+Inf"} `,
		`powersensor_self_stage_read_seconds_bucket{stage="ratelimit",le="+Inf"} `,
		`powersensor_self_events_total `,
		`powersensor_build_info{version="dev",go="`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing self-telemetry %q", want)
		}
	}
	code, body = get("/api/fleet")
	if code != http.StatusOK {
		t.Errorf("/api/fleet: status %d", code)
	}
	var fleetBody struct {
		Devices []struct {
			Backend string  `json:"backend"`
			RateHz  float64 `json:"rate_hz"`
		} `json:"devices"`
	}
	if err := json.Unmarshal([]byte(body), &fleetBody); err != nil {
		t.Fatalf("/api/fleet: %v", err)
	}
	served := map[string]bool{}
	for _, d := range fleetBody.Devices {
		served[d.Backend] = true
		served["rate_hz="+strconv.FormatFloat(d.RateHz, 'g', -1, 64)] = true
	}
	for _, want := range []string{"powersensor3", "nvml", "rapl", "powersensor3+resample+calib",
		"rapl+ratelimit", "rate_hz=20000", "rate_hz=1000"} {
		if !served[want] {
			t.Errorf("/api/fleet missing %q", want)
		}
	}
	// Traces serve from hardware, software and derived stations alike.
	if code, _ := get("/api/device/gpu1/trace?points=20"); code != http.StatusOK {
		t.Errorf("/api/device/gpu1/trace: status %d", code)
	}
	if code, _ := get("/api/device/gpu0lo/trace?points=20"); code != http.StatusOK {
		t.Errorf("/api/device/gpu0lo/trace: status %d", code)
	}
	if code, _ := get("/api/device/cpu0/trace?points=20"); code != http.StatusOK {
		t.Errorf("/api/device/cpu0/trace: status %d", code)
	}
	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Errorf("/healthz: status %d", code)
	}
}

// TestEventsFreshBoot wires a daemon the way run does and asserts the
// acceptance contract of the lifecycle log: /api/events on a fresh boot
// carries one adopt event per default-fleet station.
func TestEventsFreshBoot(t *testing.T) {
	mgr, handler, err := setup(simsetup.DefaultFleetSpec,
		1, 0, 5*time.Millisecond, 20, 4096, 8, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	srv := httptest.NewServer(handler)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/api/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/api/events: status %d", resp.StatusCode)
	}
	var log struct {
		Total   uint64 `json:"total"`
		Dropped uint64 `json:"dropped"`
		Events  []struct {
			Seq     uint64 `json:"seq"`
			Type    string `json:"type"`
			Station string `json:"station"`
			Kind    string `json:"kind"`
		} `json:"events"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&log); err != nil {
		t.Fatal(err)
	}
	adopted := map[string]bool{}
	for _, ev := range log.Events {
		if ev.Type == "adopt" {
			adopted[ev.Station] = true
		}
	}
	for _, dev := range []string{"gpu0", "gpu1", "soc0", "ssd0", "gpu0sw", "cpu0",
		"gpu0lo", "cpu0lim"} {
		if !adopted[dev] {
			t.Errorf("/api/events missing adopt event for %s (got %+v)", dev, log.Events)
		}
	}
	if log.Dropped != 0 || log.Total != uint64(len(log.Events)) {
		t.Errorf("fresh boot: total=%d dropped=%d events=%d, want all retained",
			log.Total, log.Dropped, len(log.Events))
	}
}

// TestNewLogger covers the -log-format wiring: both formats carry
// structured fields, unknown formats fail fast.
func TestNewLogger(t *testing.T) {
	var buf strings.Builder
	logger, err := newLogger("text", &buf)
	if err != nil {
		t.Fatal(err)
	}
	logger.Info("adopted station", "station", "gpu9", "kind", "synth")
	if out := buf.String(); !strings.Contains(out, "station=gpu9") ||
		!strings.Contains(out, "kind=synth") {
		t.Errorf("text log missing structured fields: %q", out)
	}
	buf.Reset()
	logger, err = newLogger("json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	logger.Info("serving", "addr", ":9120")
	var rec map[string]any
	if err := json.Unmarshal([]byte(buf.String()), &rec); err != nil {
		t.Fatalf("json log is not JSON: %v (%q)", err, buf.String())
	}
	if rec["addr"] != ":9120" || rec["msg"] != "serving" {
		t.Errorf("json log fields wrong: %v", rec)
	}
	if _, err := newLogger("yaml", &buf); err == nil {
		t.Error("bad log format accepted")
	}
}

// TestDebugMux proves the pprof surface is mounted on its own mux — and
// only there.
func TestDebugMux(t *testing.T) {
	srv := httptest.NewServer(debugMux())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "goroutine") {
		t.Errorf("pprof index: status %d body %q", resp.StatusCode, body)
	}

	// The scrape handler must not expose it.
	mgr, handler, err := setup("gpu0=synth", 1, 0, time.Millisecond, 20, 64, 8, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	main := httptest.NewServer(handler)
	defer main.Close()
	resp, err = http.Get(main.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("pprof reachable through scrape port: status %d", resp.StatusCode)
	}
}

func TestSetupBadSpec(t *testing.T) {
	if _, _, err := setup("gpu0=warp9", 1, 0, time.Millisecond, 20, 64, 8, 0, 0, nil); err == nil {
		t.Fatal("bad spec accepted")
	}
}

// TestAdminAddRemove drives the lifecycle endpoints against a serving
// daemon: a station hot-added over HTTP starts serving scrape series, a
// retired one disappears, and the churn counters follow along.
func TestAdminAddRemove(t *testing.T) {
	// Paced at real time so the pacer sleeps between quanta and the
	// HTTP round-trips get CPU on small hosts.
	mgr, handler, err := setup("gpu0=synth", 1, 1, 5*time.Millisecond,
		20, 4096, 8, 0, 100*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	mgr.Start()
	defer mgr.Stop()
	srv := httptest.NewServer(handler)
	defer srv.Close()

	post := func(path string) (int, string) {
		resp, err := http.Post(srv.URL+path, "application/x-www-form-urlencoded", nil)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	get := func(path string) (int, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	if code, body := post("/api/fleet/add?name=hot0&kind=synth"); code != http.StatusOK {
		t.Fatalf("add hot0: status %d: %s", code, body)
	}
	if mgr.Size() != 2 || mgr.Device("hot0") == nil {
		t.Fatalf("hot0 not adopted: size=%d", mgr.Size())
	}
	_, body := get("/metrics")
	for _, want := range []string{
		`powersensor_source_info{device="hot0",backend="synthetic",kind="synth"} 1`,
		"powersensor_fleet_adopted_total 2",
		"powersensor_fleet_retired_total 0",
	} {
		if !strings.Contains(body, want+"\n") {
			t.Errorf("/metrics after add missing %q", want)
		}
	}

	// Error paths: duplicate name, unknown kind, missing params, unknown
	// removal target, wrong method.
	if code, _ := post("/api/fleet/add?name=hot0&kind=synth"); code != http.StatusConflict {
		t.Errorf("duplicate add: status %d, want %d", code, http.StatusConflict)
	}
	if code, _ := post("/api/fleet/add?name=x&kind=warp9"); code != http.StatusBadRequest {
		t.Errorf("unknown kind: status %d, want %d", code, http.StatusBadRequest)
	}
	if code, _ := post("/api/fleet/add?name=x&kind=synth%7Cresample:0"); code != http.StatusBadRequest {
		t.Errorf("bad stage arg: status %d, want %d", code, http.StatusBadRequest)
	}
	if code, _ := post("/api/fleet/add"); code != http.StatusBadRequest {
		t.Errorf("missing params: status %d, want %d", code, http.StatusBadRequest)
	}
	if code, _ := post("/api/fleet/remove/nope"); code != http.StatusNotFound {
		t.Errorf("remove unknown: status %d, want %d", code, http.StatusNotFound)
	}
	// A GET on the add endpoint falls through to the read-only exporter
	// (the catch-all route), which has no such path: the write surface is
	// unreachable without POST.
	if code, _ := get("/api/fleet/add?name=y&kind=synth"); code != http.StatusNotFound {
		t.Errorf("GET on add: status %d, want %d", code, http.StatusNotFound)
	}
	if mgr.Device("y") != nil {
		t.Error("GET on add adopted a station")
	}

	// Hot-add accepts full kindspecs: a piped derived view over HTTP
	// (the pipe URL-encoded as %7C).
	if code, body := post("/api/fleet/add?name=hot1&kind=synth%7Cresample:1000%7Ccalib:0.5"); code != http.StatusOK {
		t.Fatalf("add piped hot1: status %d: %s", code, body)
	}
	_, body = get("/metrics")
	if !strings.Contains(body,
		`powersensor_source_info{device="hot1",backend="synthetic+resample+calib",kind="synth|resample:1000|calib:0.5"} 1`+"\n") {
		t.Error("/metrics missing piped hot1 derived backend")
	}
	if code, _ := post("/api/fleet/remove/hot1"); code != http.StatusOK {
		t.Error("remove piped hot1 failed")
	}

	if code, body := post("/api/fleet/remove/hot0"); code != http.StatusOK {
		t.Fatalf("remove hot0: status %d: %s", code, body)
	}
	if mgr.Size() != 1 || mgr.Device("hot0") != nil {
		t.Fatalf("hot0 not retired: size=%d", mgr.Size())
	}
	_, body = get("/metrics")
	if strings.Contains(body, `device="hot0"`) {
		t.Error("/metrics still carries retired hot0 series")
	}
	if !strings.Contains(body, "powersensor_fleet_retired_total 2\n") {
		t.Error("/metrics retired counter did not account both removals")
	}
}

// TestEnergyEndpointThroughDaemon wires the daemon as run does and
// exercises the windowed energy API end to end: the warmed default fleet
// answers a real window with positive joules, an empty window is exactly
// 0 J, and the history trace export round-trips.
func TestEnergyEndpointThroughDaemon(t *testing.T) {
	mgr, handler, err := setup("gpu0=synth", 1, 0, 5*time.Millisecond,
		20, 4096, 8, 0, 500*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	srv := httptest.NewServer(handler)
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	var ans struct {
		Joules    float64 `json:"joules"`
		MeanWatts float64 `json:"mean_watts"`
	}
	code, body := get("/api/device/gpu0/energy?from=0.1&to=0.4")
	if code != http.StatusOK {
		t.Fatalf("/energy: status %d: %s", code, body)
	}
	if err := json.Unmarshal([]byte(body), &ans); err != nil {
		t.Fatal(err)
	}
	if ans.Joules <= 0 || ans.MeanWatts <= 0 {
		t.Errorf("energy over [0.1s, 0.4s] = %v J at %v W, want > 0", ans.Joules, ans.MeanWatts)
	}
	if code, body = get("/api/device/gpu0/energy?from=0.2&to=0.2"); code != http.StatusOK {
		t.Fatalf("/energy empty window: status %d", code)
	}
	if err := json.Unmarshal([]byte(body), &ans); err != nil {
		t.Fatal(err)
	}
	if ans.Joules != 0 || ans.MeanWatts != 0 {
		t.Errorf("empty window = %v J at %v W, want exactly 0/0", ans.Joules, ans.MeanWatts)
	}
	if code, body = get("/api/device/gpu0/history?points=100"); code != http.StatusOK ||
		!strings.Contains(body, "time_s,w0,total,marker") {
		t.Errorf("/history: status %d, body %.60q", code, body)
	}
	// The history tier's self families ride the daemon's scrape.
	if _, body = get("/metrics"); !strings.Contains(body, "powersensor_self_history_points ") {
		t.Error("/metrics missing history self-telemetry")
	}
}

// TestCheckFleetFlags: the history tier is always on, so a negative
// -history budget is refused as a usage error, as are a negative -rate
// and an out-of-range -shards.
func TestCheckFleetFlags(t *testing.T) {
	if err := checkFleetFlags(1, 8, 0); err != nil {
		t.Errorf("default flags refused: %v", err)
	}
	for _, c := range []struct {
		rate              float64
		shards, histBytes int
		want              string
	}{
		{1, 8, -1, "-history"},
		{-1, 8, 0, "-rate"},
		{1, 0, 0, "-shards"},
		{1, fleet.MaxShards + 1, 0, "-shards"},
	} {
		err := checkFleetFlags(c.rate, c.shards, c.histBytes)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("checkFleetFlags(%v, %d, %d) = %v, want a %s usage error",
				c.rate, c.shards, c.histBytes, err, c.want)
		}
	}
}
