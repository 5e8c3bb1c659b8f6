// Fleet: run a heterogeneous fleet of measurement stations — including
// derived pipeline views — scrape it, then hot-add and retire a station
// while the fleet keeps serving.
//
// This is the smallest end-to-end use of the dynamic fleet subsystem: a
// PCIe GPU and an SSD measured by PowerSensor3 at 20 kHz, next to two
// software meters — an NVML counter at ~10 Hz and a RAPL energy counter
// at ~1 kHz throttled to 100 Hz with sampling-overhead accounting — all
// behind the same streaming source layer, each driven with its own
// self-repeating workload, served over HTTP by the exporter. The fleet
// also serves gpu0lo, a derived view of gpu0's rig: the same 20 kHz
// stream resampled to 1 kHz with a 0.98 gain trim, stacked from pipeline
// stages via the spec's pipe syntax (the full grammar is documented on
// simsetup.ParseFleet). A sixth station, flaky0, carries a reproducible
// failure scenario — a stuck register and rare single-sample glitches
// from the fault-injection stages — and the demo's first act replays it
// deterministically, printing the station-health transitions the fleet
// watchdog publishes as it detects the flatline, quarantines the spikes
// and recovers the station. Mid-serve, a station is adopted and later
// retired — what the psd daemon's POST /api/fleet/add and
// /api/fleet/remove/{name} endpoints do on an operator's request — while
// scrapes keep flowing.
//
//	go run ./examples/fleet
package main

import (
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"repro/internal/export"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/simsetup"
)

func scrape(srv *httptest.Server, prefixes ...string) []string {
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		log.Fatal(err)
	}
	var out []string
	for _, line := range strings.Split(string(body), "\n") {
		for _, p := range prefixes {
			if strings.HasPrefix(line, p) {
				out = append(out, line)
			}
		}
	}
	return out
}

func main() {
	// Assemble the fleet: five named stations over two backend families
	// plus a derived view. gpu0lo pins gpu0's seed index with "@0", so it
	// is the same simulated rig served through a resample+calibrate
	// pipeline; cpu0 is rate-limited so the fleet ingests 100 Hz of its
	// 1 kHz counter. (With real hardware the PowerSensor3 stations would
	// each be one sensor on /dev/ttyACM*; the software meters would poll
	// NVML/RAPL.) Rate 20 paces virtual time at 20× wall, so the demo's
	// short sleeps cover whole workload cycles.
	// flaky0 is the same SSD rig with a reproducible failure scenario
	// stacked on: a register that sticks for whole 2 s windows (serving
	// the last healthy reading at full rate — fake liveness) and rare 8×
	// single-sample glitches. The fault stages draw from the station seed,
	// so this exact failure timeline replays on every run.
	mgr, err := fleet.FromSpec(
		"gpu0=rtx4000ada,gpu0lo=rtx4000ada@0|resample:1000|calib:0.98,"+
			"ssd0=ssd,gpu0sw=nvml,cpu0=rapl|ratelimit:100,"+
			"flaky0=ssd|stuck:0.35:2s|spike:0.0001:8",
		42, fleet.Config{Rate: 20})
	if err != nil {
		log.Fatal(err)
	}
	defer mgr.Close()

	// Before going live, replay flaky0's failure scenario
	// deterministically: drive the fleet by hand for 14 virtual seconds
	// and watch the watchdog walk the station through its health states —
	// the stuck windows flatline it (bit-identical blocks at full rate),
	// the glitches are quarantined before they can reach the ring, and
	// each clean stretch recovers it.
	fmt.Println("flaky0 health timeline (stuck:0.35:2s + spike:0.0001:8, watchdog reacting):")
	seen := 0
	for v := 0; v < 140; v++ {
		mgr.StepAll(100 * time.Millisecond)
		events := mgr.Events().Tail(0)
		for _, ev := range events[seen:] {
			if ev.Station == "flaky0" && ev.Type == obs.EventHealth {
				fmt.Printf("  t=%4.1fs  %s\n", float64(v+1)*0.1, ev.Reason)
			}
		}
		seen = len(events)
	}
	st := mgr.Device("flaky0").Status()
	fmt.Printf("  episodes: %d flatlines, %d spikes quarantined (health now %q)\n",
		st.Flatlines, st.SpikesQuarantined, st.Health)

	// Start the fleet's pacer — from here on the fleet serves live.
	mgr.Start()
	defer mgr.Stop()
	srv := httptest.NewServer(export.New(mgr).Handler())
	defer srv.Close()

	// The raw 20 kHz station and its 1 kHz derived view serve side by
	// side; the throttled meter accounts the wall time its sampling cost.
	fmt.Println("\nstation      backend                      rate        power      energy    samples  state    health")
	snap := mgr.Snapshot()
	for _, st := range snap {
		fmt.Printf("%-12s %-28s %7g Hz %7.2f W %8.2f J %10d  %-8s %s\n",
			st.Name, st.Backend, st.RateHz, st.Watts, st.Joules, st.Samples, st.State, st.Health)
	}
	for _, st := range snap {
		if st.OverheadSeconds > 0 {
			fmt.Printf("\n%s sampling overhead so far: %.3g s (powersensor_source_overhead_seconds)\n",
				st.Name, st.OverheadSeconds)
		}
	}

	// Hot-add a station against the running manager: the pacer steps it
	// from the next quantum, and the next scrape carries its series. This is
	// what POST /api/fleet/add?name=gpu1&kind=synth does on a psd daemon.
	hot, err := simsetup.NewStation("synth", 7)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := mgr.Add("gpu1", "synth", hot); err != nil {
		log.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond) // let the new station ingest
	fmt.Println("\nafter hot add (fleet keeps serving):")
	for _, line := range scrape(srv, "powersensor_fleet_", "powersensor_board_watts") {
		fmt.Println(" ", line)
	}

	// Retire it again: stepping stops, the in-flight downsample block
	// drains into the ring as a final point, subscriptions close, and the
	// station's series leave the exposition — the survivors never pause.
	if err := mgr.Remove("gpu1"); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nafter retirement:")
	for _, line := range scrape(srv, "powersensor_fleet_", "powersensor_board_watts") {
		fmt.Println(" ", line)
	}
	fmt.Printf("\nchurn: %d stations adopted, %d retired over the fleet's life\n",
		mgr.Adopted(), mgr.Retired())
}
