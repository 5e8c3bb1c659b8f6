// The head's HTTP surface: the merged /metrics exposition assembled from
// per-leaf cached segments, the merged JSON fleet view, per-device
// drill-down proxies to the owning leaf, the head-aware health probe and
// the lifecycle event log.

package federation

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/internal/export"
	"repro/internal/fleet"
	"repro/internal/version"
)

// Head self-telemetry family names and pre-rendered headers.
const famLeafScrape = "powersensor_leaf_scrape_duration_seconds"

var (
	hdrHeadLeaves = export.Header("powersensor_head_leaves",
		"Leaf daemons this head aggregates.", "gauge")
	hdrHeadRounds = export.Header("powersensor_head_poll_rounds_total",
		"Completed poll rounds across all leaves.", "counter")
	hdrLeafUp = export.Header("powersensor_leaf_up",
		"Whether the last poll of each leaf succeeded; stations of a down leaf serve stale.", "gauge")
	hdrLeafStations = export.Header("powersensor_leaf_stations",
		"Stations in each leaf's last-known fleet view.", "gauge")
	hdrLeafGeneration = export.Header("powersensor_leaf_generation",
		"Block-boundary generation fingerprint of each leaf's last-known view.", "gauge")
	hdrLeafBreaker = export.Header("powersensor_leaf_breaker_state",
		"Circuit breaker state per leaf: 0 closed, 1 half-open, 2 open.", "gauge")
	hdrLeafConsecFails = export.Header("powersensor_leaf_consecutive_failures",
		"Current consecutive poll-failure run per leaf; resets on success.", "gauge")
	hdrLeafBreakerOpens = export.Header("powersensor_leaf_breaker_opens_total",
		"Times each leaf's circuit breaker has opened.", "counter")
	hdrLeafPolls = export.Header("powersensor_leaf_polls_total",
		"Poll attempts per leaf (breaker-rejected rounds excluded).", "counter")
	hdrLeafPollFails = export.Header("powersensor_leaf_poll_failures_total",
		"Polls per leaf that failed after all in-poll retries.", "counter")
	hdrLeafRenders = export.Header("powersensor_leaf_renders_total",
		"Exposition segment re-renders per leaf; quiet leaves serve cached segments instead.", "counter")
	hdrLeafScrape = export.Header(famLeafScrape,
		"Wall time of one leaf poll, all in-poll attempts included.", "histogram")
	hdrHeadEvents = export.Header("powersensor_head_events_total",
		"Head lifecycle events ever recorded (leaf up/down, breaker transitions).", "counter")
	hdrHeadEventsDropped = export.Header("powersensor_head_events_dropped_total",
		"Head lifecycle events overwritten after the event ring filled.", "counter")
	hdrHeadBuildInfo = export.Header("powersensor_build_info",
		"Build identity of this daemon; always 1.", "gauge")
	hdrHeadScrapeDuration = export.Header("powersensor_scrape_duration_seconds",
		"Wall time spent rendering this scrape.", "gauge")

	headBuildInfoLine = "powersensor_build_info{version=\"" + export.Escape(version.Version) +
		"\",go=\"" + export.Escape(version.GoVersion()) + "\",role=\"head\"} 1\n"
)

// Handler returns the head's route table.
func (h *Head) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /metrics", h.metrics)
	mux.HandleFunc("GET /api/fleet", h.fleetJSON)
	mux.HandleFunc("GET /api/events", export.EventsHandler(h.events))
	mux.HandleFunc("GET /api/device/{leaf}/{name}/energy", h.proxyDevice("energy"))
	mux.HandleFunc("GET /api/device/{leaf}/{name}/trace", h.proxyDevice("trace"))
	mux.HandleFunc("GET /api/device/{leaf}/{name}/history", h.proxyDevice("history"))
	mux.HandleFunc("GET /healthz", h.healthz)
	mux.HandleFunc("GET /{$}", h.index)
	return mux
}

// metrics renders the merged exposition: every per-device family
// concatenated across the per-leaf cached segments (each the leaf's
// stations under a leaf label, re-rendered only when that leaf's fleet
// generation moved — a scrape is memcpys for every quiet leaf), followed
// by the head's own self-telemetry tail, rendered fresh per scrape.
func (h *Head) metrics(w http.ResponseWriter, _ *http.Request) {
	began := time.Now()
	st := h.scratch.Get().(*headScrapeState)
	// Stage: copy each leaf's current segment out under its lock. Polls
	// rendering concurrently cannot mutate staged bytes, and assembly
	// below holds no locks.
	for i, ls := range h.leaves {
		ls.mu.Lock()
		ls.renderer.CopySegment(&st.segs[i])
		ls.mu.Unlock()
	}
	buf := st.buf[:0]
	buf = export.AppendSegments(buf, st.segs)
	buf = h.appendSelf(buf, st, began)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write(buf)
	st.buf = buf
	h.scratch.Put(st)
}

// appendSelf renders the head's self-telemetry tail: the per-leaf
// poll/breaker families, the event-ring counters, build info and the
// scrape's own duration.
func (h *Head) appendSelf(buf []byte, st *headScrapeState, began time.Time) []byte {
	buf = append(buf, hdrHeadLeaves...)
	buf = export.AppendSample(buf, "powersensor_head_leaves", "", float64(len(h.leaves)))
	buf = append(buf, hdrHeadRounds...)
	buf = export.AppendSample(buf, "powersensor_head_poll_rounds_total", "", float64(h.rounds.Load()))
	buf = append(buf, hdrLeafUp...)
	for _, ls := range h.leaves {
		up := 0.0
		if ls.up() {
			up = 1
		}
		buf = export.AppendSample(buf, "powersensor_leaf_up", ls.labelBlock, up)
	}
	buf = append(buf, hdrLeafStations...)
	for _, ls := range h.leaves {
		ls.mu.Lock()
		n := 0
		if ls.view != nil {
			n = len(ls.view.Devices)
		}
		ls.mu.Unlock()
		buf = export.AppendSample(buf, "powersensor_leaf_stations", ls.labelBlock, float64(n))
	}
	buf = append(buf, hdrLeafGeneration...)
	for _, ls := range h.leaves {
		ls.mu.Lock()
		var gen uint64
		if ls.view != nil {
			gen = ls.view.Generation
		}
		ls.mu.Unlock()
		buf = export.AppendSample(buf, "powersensor_leaf_generation", ls.labelBlock, float64(gen))
	}
	buf = append(buf, hdrLeafBreaker...)
	for _, ls := range h.leaves {
		buf = export.AppendSample(buf, "powersensor_leaf_breaker_state", ls.labelBlock,
			float64(ls.breaker.State()))
	}
	buf = append(buf, hdrLeafConsecFails...)
	for _, ls := range h.leaves {
		buf = export.AppendSample(buf, "powersensor_leaf_consecutive_failures", ls.labelBlock,
			float64(ls.breaker.ConsecutiveFailures()))
	}
	buf = append(buf, hdrLeafBreakerOpens...)
	for _, ls := range h.leaves {
		buf = export.AppendSample(buf, "powersensor_leaf_breaker_opens_total", ls.labelBlock,
			float64(ls.breaker.Opens()))
	}
	buf = append(buf, hdrLeafPolls...)
	for _, ls := range h.leaves {
		buf = export.AppendSample(buf, "powersensor_leaf_polls_total", ls.labelBlock,
			float64(ls.polls.Load()))
	}
	buf = append(buf, hdrLeafPollFails...)
	for _, ls := range h.leaves {
		buf = export.AppendSample(buf, "powersensor_leaf_poll_failures_total", ls.labelBlock,
			float64(ls.failures.Load()))
	}
	buf = append(buf, hdrLeafRenders...)
	for _, ls := range h.leaves {
		buf = export.AppendSample(buf, "powersensor_leaf_renders_total", ls.labelBlock,
			float64(ls.renders.Load()))
	}
	buf = append(buf, hdrLeafScrape...)
	for _, ls := range h.leaves {
		ls.scrapeHist.Snapshot(&st.hs)
		buf = ls.scrapeSeries.Append(buf, &st.hs)
	}
	buf = append(buf, hdrHeadEvents...)
	buf = export.AppendSample(buf, "powersensor_head_events_total", "", float64(h.events.Total()))
	buf = append(buf, hdrHeadEventsDropped...)
	buf = export.AppendSample(buf, "powersensor_head_events_dropped_total", "", float64(h.events.Dropped()))
	buf = append(buf, hdrHeadBuildInfo...)
	buf = append(buf, headBuildInfoLine...)
	buf = append(buf, hdrHeadScrapeDuration...)
	buf = export.AppendSample(buf, "powersensor_scrape_duration_seconds", "", time.Since(began).Seconds())
	return buf
}

// LeafInfo is one leaf's entry in the merged /api/fleet body.
type LeafInfo struct {
	Leaf                string `json:"leaf"`
	URL                 string `json:"url"`
	Up                  bool   `json:"up"`
	Stale               bool   `json:"stale"`
	Breaker             string `json:"breaker"`
	ConsecutiveFailures int    `json:"consecutive_failures"`
	Polls               uint64 `json:"polls"`
	Failures            uint64 `json:"failures"`
	Generation          uint64 `json:"generation"`
	Stations            int    `json:"stations"`
	LastError           string `json:"last_error,omitempty"`
}

// HeadStation is one station in the merged view: the leaf-side status
// plus the leaf that owns it and whether the head is serving it stale
// (the owning leaf is down, so the numbers are last-known, not live).
// A stale station's Health also reads "stale", mirroring the exposition.
type HeadStation struct {
	Leaf  string `json:"leaf"`
	Stale bool   `json:"stale"`
	fleet.Status
}

// MarshalJSON writes the station with the leaf wire codec's status
// members (export.AppendStatusFields) after leaf and stale, so a
// non-finite reading a leaf sent as null goes out as null again instead
// of failing the head's whole /api/fleet body.
func (s HeadStation) MarshalJSON() ([]byte, error) {
	b := append(make([]byte, 0, 512), `{"leaf":`...)
	b = export.AppendJSONString(b, s.Leaf)
	b = append(b, `,"stale":`...)
	b = strconv.AppendBool(b, s.Stale)
	b = append(b, ',')
	b = export.AppendStatusFields(b, &s.Status)
	return append(b, '}'), nil
}

// HeadFleetJSON is the head's /api/fleet body: the same schema tag as a
// leaf, a generation folding every leaf's, the per-leaf poll states and
// the merged station list.
type HeadFleetJSON struct {
	Schema     int           `json:"schema"`
	Generation uint64        `json:"generation"`
	Leaves     []LeafInfo    `json:"leaves"`
	Devices    []HeadStation `json:"devices"`
}

// FleetView assembles the merged JSON fleet view.
func (h *Head) FleetView() HeadFleetJSON {
	out := HeadFleetJSON{
		Schema:     export.FleetSchemaVersion,
		Generation: h.Generation(),
		Leaves:     make([]LeafInfo, 0, len(h.leaves)),
	}
	for _, ls := range h.leaves {
		ls.mu.Lock()
		info := LeafInfo{
			Leaf:                ls.leaf.Name,
			URL:                 ls.leaf.URL,
			Up:                  ls.up(),
			Stale:               ls.stale,
			Breaker:             ls.breaker.State().String(),
			ConsecutiveFailures: ls.breaker.ConsecutiveFailures(),
			Polls:               ls.polls.Load(),
			Failures:            ls.failures.Load(),
			LastError:           ls.lastErr,
		}
		if ls.view != nil {
			info.Generation = ls.view.Generation
			info.Stations = len(ls.view.Devices)
			for i := range ls.view.Devices {
				st := HeadStation{Leaf: ls.leaf.Name, Stale: ls.stale, Status: ls.view.Devices[i]}
				if ls.stale {
					st.Health = fleet.HealthStale
				}
				out.Devices = append(out.Devices, st)
			}
		}
		ls.mu.Unlock()
		out.Leaves = append(out.Leaves, info)
	}
	return out
}

func (h *Head) fleetJSON(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(h.FleetView())
}

// healthz is the head-aware liveness probe: 200 with leaf and station
// tallies while any leaf serves, 503 once every leaf is down — an
// orchestrator should restart (or reroute from) a head only when its
// whole downstream went dark, not when one leaf died. Station tallies
// are taken per leaf under its lock; a stale leaf's last-known stations
// all count as degraded.
func (h *Head) healthz(w http.ResponseWriter, _ *http.Request) {
	up := h.UpCount()
	var stations, degraded int
	for _, ls := range h.leaves {
		ls.mu.Lock()
		if ls.view != nil {
			n, deg, _ := fleet.AggregateHealth(ls.view.Devices)
			if ls.stale {
				deg = n
			}
			stations += n
			degraded += deg
		}
		ls.mu.Unlock()
	}
	w.Header().Set("Content-Type", "application/json")
	if len(h.leaves) > 0 && up == 0 {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	fmt.Fprintf(w, "{\"leaves\":%d,\"up\":%d,\"stations\":%d,\"degraded\":%d}\n",
		len(h.leaves), up, stations, degraded)
}

// proxyDevice returns a handler proxying one per-device drill-down
// endpoint (/api/device/{leaf}/{name}/<suffix>) to the owning leaf. The
// proxy is health-gated: a down leaf answers 503 immediately instead of
// timing the client out against a dead backend. Proxied requests get
// twice the poll timeout — drill-down bodies (history traces) are
// heavier than fleet views.
func (h *Head) proxyDevice(suffix string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		leaf := r.PathValue("leaf")
		ls, ok := h.byName[leaf]
		if !ok {
			names := make([]string, 0, len(h.leaves))
			for _, l := range h.leaves {
				names = append(names, l.leaf.Name)
			}
			http.Error(w, fmt.Sprintf("unknown leaf %q (have %s)",
				leaf, strings.Join(names, ", ")), http.StatusNotFound)
			return
		}
		if !ls.up() {
			http.Error(w, fmt.Sprintf("leaf %q is down", leaf), http.StatusServiceUnavailable)
			return
		}
		target := ls.leaf.URL + "/api/device/" + url.PathEscape(r.PathValue("name")) + "/" + suffix
		if r.URL.RawQuery != "" {
			target += "?" + r.URL.RawQuery
		}
		ctx, cancel := context.WithTimeout(r.Context(), 2*h.cfg.Timeout)
		defer cancel()
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, target, nil)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		resp, err := h.cfg.Client.Do(req)
		if err != nil {
			http.Error(w, fmt.Sprintf("leaf %q: %v", leaf, err), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		for _, k := range []string{"Content-Type", "Content-Disposition"} {
			if v := resp.Header.Get(k); v != "" {
				w.Header().Set(k, v)
			}
		}
		w.WriteHeader(resp.StatusCode)
		_, _ = io.Copy(w, resp.Body)
	}
}

// index is a minimal landing page linking the endpoints.
func (h *Head) index(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprintf(w, `<html><head><title>PowerSensor3 federation head</title></head><body>
<h1>PowerSensor3 federation head</h1>
<p>%d leaves, %d up</p>
<ul>
<li><a href="/metrics">/metrics</a></li>
<li><a href="/api/fleet">/api/fleet</a></li>
<li><a href="/api/events">/api/events</a></li>
<li>/api/device/{leaf}/{name}/energy?from=S&amp;to=S</li>
<li>/api/device/{leaf}/{name}/trace?format=csv|json&amp;points=N</li>
<li>/api/device/{leaf}/{name}/history?from=S&amp;to=S&amp;points=N</li>
</ul>
</body></html>
`, len(h.leaves), h.UpCount())
}
