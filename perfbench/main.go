// Command perfbench is the psd benchmark: it starts the daemon in
// process — leaf fleets of replayed stations, their exporters and
// history-sync loops, and a federation head, each on a real 127.0.0.1
// listener — drives it with a seeded load generator in the same process,
// checks the daemon's outputs, and prints every metric by name and unit.
//
// Usage (from the repository root; run.sh builds it first):
//
//	bash perfbench/run.sh --workload ingest-20k --seed 1 --seconds 15 --trace 0
//
// Workloads: ingest-20k, federated (see workloads.go).
// With --trace 0 the run sets up five times (setup_s is the median),
// measures for --seconds untraced and reports the end-to-end metrics,
// with every timing scaled to a host of nominal speed (hostspeed.go).
// With --trace 1 it measures half the time untraced and half traced —
// timing wrappers around every source, pipeline chain, handler and the
// head's transport — and reports the per-layer metrics, including the
// tracing overhead on the workload's headline metric.
//
// The last line of standard output is one JSON object:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"name":{"value":x,"unit":"u"},...}}
//
// failed/attempted is the error ratio: HTTP errors, timeouts and failed
// output checks over every operation sent or checked.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

func main() {
	workload := flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := flag.Uint64("seed", 1, "seed the inputs derive from")
	seconds := flag.Float64("seconds", 15, "measured seconds")
	traceFlag := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	if flag.NArg() != 0 || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload W --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	dur := time.Duration(*seconds * float64(time.Second))
	if err := run(os.Stdout, *workload, *seed, dur, *traceFlag == 1, 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// setups is how many times a --trace 0 run sets up and measures, each
// for an equal share of --seconds; setup_s is the median set-up time.
const setups = 5

// run executes one benchmark run and writes its report to w.
func run(w io.Writer, workload string, seed uint64, dur time.Duration, traced bool, scale float64) error {
	p, err := newPlan(workload, seed, scale)
	if err != nil {
		return err
	}
	out := bufio.NewWriter(w)
	defer out.Flush()
	fmt.Fprintf(out, "# perfbench workload=%s seed=%d seconds=%g trace=%t\n# why: %s\n",
		p.name, seed, dur.Seconds(), traced, p.why)
	prov, err := json.Marshal(provenance(p, seed))
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "# provenance %s\n", prov)

	var phases []*phase
	values := map[string]float64{}
	defs := endToEnd
	if !traced {
		// Each setup launches its own driver goroutines, listeners and
		// caches; pooling the samples of several setups keeps one launch's
		// luck from deciding a run.
		var times, rawTimes, factors []float64
		var nominal []*phase
		hs := startHostSampler()
		defer hs.close()
		for i := 0; i < setups; i++ {
			runtime.GC()
			began := time.Now()
			d, err := setup(p, seed, nil)
			if err != nil {
				return fmt.Errorf("setup: %w", err)
			}
			took := time.Since(began)
			rawTimes = append(rawTimes, took.Seconds())
			times = append(times, took.Seconds()/hs.factor(began, began.Add(took)))
			ph := runPhase(p, d, seed, i, dur/setups)
			d.teardown()
			f := hs.factor(ph.start, ph.start.Add(ph.elapsed))
			phases, factors = append(phases, ph), append(factors, f)
			nominal = append(nominal, ph.scaled(f))
		}
		ph := pool(phases)
		values = endToEndValues(quantile(times, 0.5), pool(nominal))
		fmt.Fprintf(out, "# host factor per measured phase (kernel %.4g rounds/s over the median pass): %.4f\n",
			float64(probeNominal), factors)
		fmt.Fprintf(out, "# setup times at nominal host speed (s): %.4f\n", times)
		raw := endToEndValues(quantile(rawTimes, 0.5), ph)
		for _, m := range endToEnd {
			fmt.Fprintf(out, "# as measured: %-24s %14.6g %s\n", m.name, raw[m.name], m.unit)
		}
		for i, sp := range phases {
			printPhase(out, fmt.Sprintf("setup %d as measured", i+1), sp)
		}
		printPhase(out, "pooled as measured", ph)
	} else {
		defs = perLayer
		d, err := setup(p, seed, nil)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		plain := runPhase(p, d, seed, 0, dur/2)
		d.teardown()
		runtime.GC()
		d, err = setup(p, seed, newTracer())
		if err != nil {
			return fmt.Errorf("traced setup: %w", err)
		}
		tracedPh := runPhase(p, d, seed, 1, dur/2)
		d.teardown()
		phases = append(phases, plain, tracedPh)
		u := endToEndValues(0, plain)[p.headline]
		t := endToEndValues(0, tracedPh)[p.headline]
		overhead := 100 * div(t-u, u) // a slower traced run reads positive
		if p.headline == "ingest_msamples_per_s" {
			overhead = 100 * div(u-t, u)
		}
		values = layerValues(d, tracedPh, overhead)
		fmt.Fprintf(out, "# headline %s untraced %.6g traced %.6g\n", p.headline, u, t)
		d.tr.summary(out)
		if !p.head {
			fmt.Fprintln(out, "# no federation head on this workload: federation.* and export.fleet_json_* read 0")
		}
	}

	res := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, ph := range phases {
		res.Attempted += ph.attempted()
		res.Failed += ph.failed()
		if err := ph.firstErr(); err != nil {
			fmt.Fprintf(out, "# first failure: %v\n", err)
		}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	for _, m := range defs {
		v := finite(values[m.name])
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
		fmt.Fprintf(out, "%-36s %14.6g %s\n", m.name, v, m.unit)
	}
	if !traced && p.drive == driveCycle {
		// On federated the data age is the head's freshness.
		fmt.Fprintf(out, "%-36s %14.6g ms\n", "head_fresh_p50_ms", finite(values["data_age_p50_ms"]))
		fmt.Fprintf(out, "%-36s %14.6g ms\n", "head_fresh_p95_ms", finite(values["data_age_p95_ms"]))
	}
	fmt.Fprintf(out, "%-36s %14.6g ratio (%d failed of %d)\n", "error_ratio",
		div(float64(res.Failed), float64(res.Attempted)), res.Failed, res.Attempted)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s\n", line)
	return nil
}

// printPhase reports a phase's sample counts and percentiles, the
// numbers behind each percentile metric.
func printPhase(w io.Writer, label string, ph *phase) {
	scrape, energy := ph.stats.lat["scrape"], ph.stats.lat["energy"]
	fmt.Fprintf(w, "# %s: scrape n=%d p50=%.4g p95=%.4g, energy n=%d p50=%.4g p95=%.4g, "+
		"data_age n=%d p50=%.4g p95=%.4g ms; %.3fs using %.2f of %d CPUs\n",
		label, len(scrape), quantile(scrape, 0.5), quantile(scrape, 0.95),
		len(energy), quantile(energy, 0.5), quantile(energy, 0.95),
		len(ph.ages), quantile(ph.ages, 0.5), quantile(ph.ages, 0.95),
		ph.elapsed.Seconds(), ph.cpuCores, runtime.NumCPU())
}

// provenance records what a reader needs to compare runs: absolute
// timings on a shared VM drift from one hour to the next.
func provenance(p *plan, seed uint64) map[string]any {
	stations := map[string]int{}
	for _, l := range p.leaves {
		stations[l.name] = len(l.stations)
	}
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, modified string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
		if rev != "" {
			commit = rev
			if modified == "true" {
				commit += "+modified"
			}
		}
	}
	return map[string]any{
		"workload":   p.name,
		"seed":       seed,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu":        cpuModel(),
		"go":         runtime.Version(),
		"commit":     commit,
		"stations":   stations,
	}
}

// cpuModel returns the host CPU's model name, or "unknown".
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	var names []string
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			names = append(names, strings.TrimSpace(v))
		}
	}
	if len(names) == 0 {
		return "unknown"
	}
	sort.Strings(names)
	return names[0]
}
