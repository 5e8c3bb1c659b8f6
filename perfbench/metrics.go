package main

import (
	"math"
	"net/http"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the daemon sees, reported from the
// untraced run on every workload. On federated the daemon users read is
// the head: "scrape" is its /metrics, "energy" its proxied drill-down and
// the data age its freshness (head_fresh).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ingest_msamples_per_s", "Msamples/s"},
	{"scrape_p50_ms", "ms"},
	{"scrape_p95_ms", "ms"},
	{"energy_p50_ms", "ms"},
	{"energy_p95_ms", "ms"},
	{"data_age_p50_ms", "ms"},
	{"data_age_p95_ms", "ms"},
	{"heap_mib", "MiB"},
}

// perLayer are the traced run's single-layer metrics.
var perLayer = []metricDef{
	{"source.read_ns_per_sample", "ns"},
	{"pipeline.read_ns_per_sample", "ns"},
	{"pipeline.samples_in", "count"},
	{"pipeline.samples_out", "count"},
	{"fleet.step_ns_per_sample", "ns"},
	{"fleet.step_self_ns_per_sample", "ns"},
	{"fleet.samples", "count"},
	{"fleet.ring_points", "count"},
	{"fleet.spikes_quarantined", "count"},
	{"fleet.gaps", "count"},
	{"fleet.sync_ns_per_point", "ns"},
	{"fleet.ring_missed", "count"},
	{"fleet.lag_p95_ms", "ms"},
	{"fleet.add_us", "us"},
	{"fleet.remove_us", "us"},
	{"export.metrics_handler_ms", "ms"},
	{"export.metrics_bytes", "bytes"},
	{"export.metrics_wire_ms", "ms"},
	{"export.cache_hit_ratio", "ratio"},
	{"export.shard_renders_per_scrape", "count"},
	{"export.energy_handler_us", "us"},
	{"export.fleet_json_handler_ms", "ms"},
	{"export.fleet_json_bytes", "bytes"},
	{"history.bytes_per_point", "bytes"},
	{"history.points", "count"},
	{"federation.poll_ms", "ms"},
	{"federation.leaf_request_ms", "ms"},
	{"federation.not_modified_ratio", "ratio"},
	{"federation.poll_bytes", "bytes"},
	{"federation.poll_failures", "count"},
	{"federation.head_metrics_handler_ms", "ms"},
	{"bench.generator_late_p95_ms", "ms"},
	{"bench.unaccounted_pct", "%"},
	{"bench.trace_overhead_pct", "%"},
}

// endToEndValues computes the end-to-end metrics of an untraced phase.
func endToEndValues(setupS float64, ph *phase) map[string]float64 {
	return map[string]float64{
		"setup_s":               setupS,
		"ingest_msamples_per_s": ph.ingest(),
		"scrape_p50_ms":         quantile(ph.stats.lat["scrape"], 0.5),
		"scrape_p95_ms":         quantile(ph.stats.lat["scrape"], 0.95),
		"energy_p50_ms":         quantile(ph.stats.lat["energy"], 0.5),
		"energy_p95_ms":         quantile(ph.stats.lat["energy"], 0.95),
		"data_age_p50_ms":       quantile(ph.ages, 0.5),
		"data_age_p95_ms":       quantile(ph.ages, 0.95),
		"heap_mib":              ph.heapMiB,
	}
}

// layerValues computes the per-layer metrics of a traced phase.
func layerValues(d *deployment, ph *phase, overheadPct float64) map[string]float64 {
	t := d.tr
	t.mu.Lock()
	defer t.mu.Unlock()
	v := map[string]float64{}

	r, r0 := t.reads.load(), t.readsAtMeasure
	srcNs, srcN := r.srcNs-r0.srcNs, r.srcSamples-r0.srcSamples
	stagedNs, stagedN := r.stagedSrcNs-r0.stagedSrcNs, r.stagedSrcSamples-r0.stagedSrcSamples
	v["source.read_ns_per_sample"] = div(float64(srcNs), float64(srcN))
	v["pipeline.read_ns_per_sample"] = div(float64(r.pipeNs-r0.pipeNs-stagedNs), float64(stagedN))
	v["pipeline.samples_in"] = float64(stagedN)
	v["pipeline.samples_out"] = float64(r.pipeSamples - r0.pipeSamples)

	var wall, self time.Duration
	var samples int64
	for _, s := range preferMeasured(t.steps, func(s stepSpan) bool { return s.measured }) {
		wall += s.dur()
		self += s.dur() - s.union
		samples += s.samples
	}
	v["fleet.step_ns_per_sample"] = div(float64(wall), float64(samples))
	v["fleet.step_self_ns_per_sample"] = div(float64(self), float64(samples))

	v["fleet.samples"] = float64(ph.delta.samples)
	v["fleet.ring_points"] = float64(ph.delta.ring)
	v["fleet.spikes_quarantined"] = float64(ph.delta.spikes)
	v["fleet.gaps"] = float64(ph.delta.gaps)

	var syncWall time.Duration
	var appended int
	var missed uint64
	for _, s := range preferMeasured(t.syncs, func(s syncSpan) bool { return s.measured }) {
		syncWall += s.dur()
		appended += s.appended
		missed += s.missed
	}
	v["fleet.sync_ns_per_point"] = div(float64(syncWall), float64(appended))
	v["fleet.ring_missed"] = float64(missed)
	v["fleet.lag_p95_ms"] = quantile(t.lags, 0.95)
	v["fleet.add_us"] = quantile(t.adds, 0.5)
	v["fleet.remove_us"] = quantile(t.removes, 0.5)

	var leafMetricsMs, leafMetricsBytes, energyUs, fleetMs, fleetBytes, headMs []float64
	handlerOf := map[int64]handlerSpan{}
	for _, h := range t.handlers {
		if !h.measured {
			continue
		}
		if h.id != 0 {
			handlerOf[h.id] = h
		}
		leafSide := h.server != "head"
		switch {
		case leafSide && h.route == "metrics":
			leafMetricsMs = append(leafMetricsMs, ms(h.dur()))
			leafMetricsBytes = append(leafMetricsBytes, float64(h.bytes))
		case leafSide && h.route == "energy":
			energyUs = append(energyUs, float64(h.dur())/float64(time.Microsecond))
		case leafSide && h.route == "fleet" && h.status == http.StatusOK:
			fleetMs = append(fleetMs, ms(h.dur()))
			fleetBytes = append(fleetBytes, float64(h.bytes))
		case !leafSide && h.route == "metrics":
			headMs = append(headMs, ms(h.dur()))
		}
	}
	v["export.metrics_handler_ms"] = quantile(leafMetricsMs, 0.5)
	v["export.metrics_bytes"] = quantile(leafMetricsBytes, 0.5)
	v["export.energy_handler_us"] = quantile(energyUs, 0.5)
	v["export.fleet_json_handler_ms"] = quantile(fleetMs, 0.5)
	v["export.fleet_json_bytes"] = quantile(fleetBytes, 0.5)
	v["federation.head_metrics_handler_ms"] = quantile(headMs, 0.5)
	v["export.cache_hit_ratio"] = ph.hitRatio
	v["export.shard_renders_per_scrape"] = ph.renders

	// Requests: wire time of leaf scrapes, and the share of request time
	// no handler span covers.
	var wire []float64
	rootWall, covered := t.iterWall, t.iterCovered
	for _, rq := range t.requests {
		if !rq.measured {
			continue
		}
		took := rq.done - rq.send
		rootWall += took
		h, ok := handlerOf[rq.id]
		if !ok {
			continue
		}
		covered += min(took, h.dur())
		if rq.route == "metrics" && h.server != "head" {
			wire = append(wire, ms(took-h.dur()))
		}
	}
	v["export.metrics_wire_ms"] = quantile(wire, 0.5)
	v["bench.unaccounted_pct"] = 100 * div(float64(rootWall-covered), float64(rootWall))

	v["history.bytes_per_point"] = div(float64(ph.histBytes), float64(ph.histPoints))
	v["history.points"] = float64(ph.histPoints)

	var pollMs []float64
	for _, s := range t.polls {
		if s.measured {
			pollMs = append(pollMs, ms(s.dur()))
		}
	}
	v["federation.poll_ms"] = quantile(pollMs, 0.5)
	var reqMs []float64
	var notModified, failures, reqBytes float64
	for _, s := range t.leafReqs {
		if !s.measured || !s.poll {
			continue
		}
		reqMs = append(reqMs, ms(s.dur()))
		reqBytes += float64(s.bytes)
		switch s.status {
		case http.StatusNotModified:
			notModified++
		case http.StatusOK:
		default:
			failures++
		}
	}
	v["federation.leaf_request_ms"] = quantile(reqMs, 0.5)
	v["federation.not_modified_ratio"] = div(notModified, float64(len(reqMs)))
	v["federation.poll_bytes"] = div(reqBytes, float64(len(reqMs)))
	v["federation.poll_failures"] = failures

	v["bench.generator_late_p95_ms"] = quantile(ph.stats.late, 0.95)
	v["bench.trace_overhead_pct"] = overheadPct
	return v
}

// preferMeasured returns the measured-phase spans, or every span when
// the measured phase recorded none.
func preferMeasured[S any](spans []S, measured func(S) bool) []S {
	var out []S
	for _, s := range spans {
		if measured(s) {
			out = append(out, s)
		}
	}
	if len(out) == 0 {
		return spans
	}
	return out
}

// div returns a/b, or 0 when b is 0.
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// finite replaces a value JSON cannot carry (no samples) by 0.
func finite(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return x
}
