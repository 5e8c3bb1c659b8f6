// Package export serves a fleet.Manager over HTTP: a Prometheus-style
// text exposition endpoint for scrapers, a JSON snapshot API for
// dashboards, and per-station trace downloads reusing the trace package's
// CSV/JSON writers. It is the observability surface of the fleet subsystem
// — modeled on standalone hardware exporters, but with no dependency
// beyond the standard library.
//
// The scrape path is built for large fleets: device statuses come from the
// manager's lock-free snapshots (a scrape never touches a station's ingest
// mutex), label blocks and HELP/TYPE headers are rendered once and cached,
// and each scrape renders every family in a single pass into a pooled
// reusable buffer — steady-state scrape cost is appending numbers.
//
// Rendering and caching are sharded along the fleet manager's own
// partitions: each fleet shard has its own rendered exposition segment,
// cached against that shard's block-boundary generation
// (fleet.Manager.ShardGen). A scrape checks every shard's generation,
// re-renders only the stale segments, and assembles the body by
// concatenating the per-shard segments family-major, so the exposition
// stays grouped by family as the text format requires. One busy station
// therefore invalidates one shard's segment, and a repeat scrape
// re-renders 1/Nth of the fleet instead of all of it; a fully idle fleet
// serves every segment as a memcpy. Each segment is at most one
// downsample block stale. Each shard renders through a Renderer, the
// same segment renderer a federation head uses per leaf.
//
// Fleets churn while serving: stations hot-added or retired mid-scrape
// simply appear in (or vanish from) the next snapshot, and the
// powersensor_fleet_adopted_total / powersensor_fleet_retired_total
// counters account for the churn. A cached label block is reused only
// while the station's name, backend, kind and channels all match, so a
// reused name never serves a retired station's labels, and a shard's
// label cache is dropped once retired names outnumber its live ones.
//
// The exposition has two sections. The fleet section — everything
// derived from station snapshots — is what the body cache holds. The
// self-telemetry tail (the powersensor_self_* families, build info and
// the scrape-duration gauge) renders fresh on every scrape, cache hit or
// not: it is the system observing itself, and serving week-old
// self-timings from an idle fleet's cached body would defeat the point.
// The tail renders the obs-layer histograms (ingest fold latency, pacer
// lateness, pipeline stage reads, scrape timing by path), the
// cache's own hit/miss counters, the lifecycle event-ring counters and
// fleet-wide ring occupancy — all from lock-free atomic reads, so a
// cache-hit scrape still never touches a station's ingest.
//
// Endpoints (all GET):
//
//	/metrics                      Prometheus text exposition (version 0.0.4)
//	/api/fleet                    JSON status of every station: the
//	                              compact, versioned federation wire
//	                              format (FleetJSON), with an ETag
//	/api/events                   JSON tail of the fleet lifecycle event
//	                              ring; ?n=N caps the tail (default 100)
//	/api/device/{name}/trace      recent downsampled trace; ?format=csv|json
//	                              (default csv), ?points=N caps the length
//	/api/device/{name}/energy     windowed energy query against the
//	                              long-horizon history tier: ?from= and ?to=
//	                              (seconds or Go durations) clip the window,
//	                              the response reports joules and the mean
//	                              watts over it; an empty window is 0 J
//	/api/device/{name}/history    long-range summed-power trace decoded from
//	                              the compressed history tier; ?from=, ?to=
//	                              window it, ?points=N decimates the result,
//	                              ?format=csv|json picks the trace encoding
//	/healthz                      fleet-aware liveness probe: 200 with
//	                              {"stations":N,"degraded":K} while any
//	                              station serves, 503 once every station
//	                              is stale or flatlined
package export

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/trace"
	"repro/internal/version"
)

// Exporter renders a fleet.Manager over HTTP.
type Exporter struct {
	mgr *fleet.Manager

	// shards holds one render cache per fleet shard, index-aligned with
	// the manager's shards: segment s renders exactly the stations of
	// fleet shard s, so fleet.Manager.ShardGen(s) is precisely the
	// staleness signal for segment s.
	shards []shardCache

	// scratch pools per-scrape working state (the render buffer, the
	// shard snapshot and the staged per-shard segment copies), so
	// concurrent scrapes reuse buffers instead of reallocating them.
	scratch sync.Pool

	// A scrape is counted as a cache hit only when every shard's segment
	// was current — the fleet section was assembled from memcpys alone;
	// any stale segment makes it a miss, however few shards re-rendered.
	// Exported as powersensor_self_scrape_cache_{hits,misses}_total.
	cacheHits   atomic.Uint64
	cacheMisses atomic.Uint64

	// Per-shard render telemetry: how many segment re-renders scrapes
	// triggered (the sharding win shows as this counter advancing by ~1
	// per busy shard instead of by the shard count), and how long one
	// segment render takes.
	shardRenders    atomic.Uint64
	shardRenderHist obs.Hist

	// Scrape self-timing, split by serve path: full renders vs scrapes
	// whose fleet section came from the body cache. Exported as the
	// powersensor_self_scrape_seconds histogram.
	renderHist obs.Hist
	cachedHist obs.Hist
}

// shardCache is the render cache of one fleet shard: its segment renderer
// and the shard generation the current render was taken against.
type shardCache struct {
	// mu guards rendered/gen/r and serialises this shard's re-renders
	// single-flight. Shards lock independently — one shard re-rendering
	// never blocks another shard's memcpy.
	mu       sync.Mutex
	rendered bool // gen valid; an empty shard's segment is legitimately empty
	gen      uint64
	r        *Renderer
}

// scrapeState is one scrape's reusable working memory: the body buffer,
// the snapshot scratch a stale shard renders from, and per-shard segment
// copies staged for assembly (so a shard re-rendering under a concurrent
// scrape can't mutate bytes mid-assembly).
type scrapeState struct {
	buf  []byte
	snap []fleet.Status
	hist obs.HistSnapshot
	segs []Segment
}

// New returns an exporter over mgr.
func New(mgr *fleet.Manager) *Exporter {
	nsh := mgr.ShardCount()
	e := &Exporter{mgr: mgr, shards: make([]shardCache, nsh)}
	for i := range e.shards {
		e.shards[i].r = NewRenderer("")
	}
	e.scratch.New = func() any {
		return &scrapeState{
			buf:  make([]byte, 0, 16<<10),
			segs: make([]Segment, nsh),
		}
	}
	return e
}

// Handler returns the exporter's route table.
func (e *Exporter) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /metrics", e.metrics)
	mux.HandleFunc("GET /api/fleet", e.fleetJSON)
	mux.HandleFunc("GET /api/events", EventsHandler(e.mgr.Events()))
	mux.HandleFunc("GET /api/device/{name}/trace", e.deviceTrace)
	mux.HandleFunc("GET /api/device/{name}/energy", e.deviceEnergy)
	mux.HandleFunc("GET /api/device/{name}/history", e.deviceHistory)
	mux.HandleFunc("GET /healthz", e.healthz)
	mux.HandleFunc("GET /{$}", e.index)
	return mux
}

// healthz is the fleet-aware liveness probe: 200 with a station/degraded
// tally while any station still serves real data, 503 once every station
// is down (stale or flatlined — serving nothing, or serving fake
// liveness), so an orchestrator restarts the daemon only when the whole
// fleet is gone, not when one meter wedges. An empty fleet is healthy:
// the daemon itself is up, there is just nothing to measure yet.
func (e *Exporter) healthz(w http.ResponseWriter, _ *http.Request) {
	stations, degraded, down := e.mgr.HealthCounts()
	w.Header().Set("Content-Type", "application/json")
	if stations > 0 && down == stations {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	fmt.Fprintf(w, "{\"stations\":%d,\"degraded\":%d}\n", stations, degraded)
}

// index is a minimal landing page linking the endpoints.
func (e *Exporter) index(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprintf(w, `<html><head><title>PowerSensor3 fleet</title></head><body>
<h1>PowerSensor3 fleet</h1>
<p>%d stations</p>
<ul>
<li><a href="/metrics">/metrics</a></li>
<li><a href="/api/fleet">/api/fleet</a></li>
<li><a href="/api/events">/api/events</a></li>
<li>/api/device/{name}/trace?format=csv|json&amp;points=N</li>
<li>/api/device/{name}/energy?from=S&amp;to=S</li>
<li>/api/device/{name}/history?from=S&amp;to=S&amp;points=N&amp;format=csv|json</li>
</ul>
</body></html>
`, e.mgr.Size())
}

// Header renders one family's HELP/TYPE comment block. The exporter
// renders its own skeleton with it once at package load; a federation
// head composes its self families with it.
func Header(name, help, typ string) string {
	return "# HELP " + name + " " + help + "\n# TYPE " + name + " " + typ + "\n"
}

// The exposition skeleton, rendered once at package load. Family order is
// fixed so the output stays golden-testable.
var (
	hdrFleetDevices = Header("powersensor_fleet_devices",
		"Stations owned by the fleet manager.", "gauge")
	hdrFleetAdopted = Header("powersensor_fleet_adopted_total",
		"Stations ever adopted by the fleet manager.", "counter")
	hdrFleetRetired = Header("powersensor_fleet_retired_total",
		"Stations ever retired from the fleet manager.", "counter")
	hdrSourceInfo = Header("powersensor_source_info",
		"Measurement backend serving each station; always 1.", "gauge")
	hdrSourceRate = Header("powersensor_source_rate_hz",
		"Native sample rate of each station's backend, in hertz.", "gauge")
	hdrSourceOverhead = Header("powersensor_source_overhead_seconds",
		"Cumulative wall time each station's source spent sampling inside ReadInto, in seconds.", "gauge")
	hdrWatts = Header("powersensor_watts",
		"Block-averaged power per measurement channel, in watts.", "gauge")
	hdrBoardWatts = Header("powersensor_board_watts",
		"Block-averaged summed board power per station, in watts.", "gauge")
	hdrJoules = Header("powersensor_joules_total",
		"Cumulative energy per station since adoption, in joules.", "counter")
	hdrSamples = Header("powersensor_samples_total",
		"Sample sets ingested per station, at the source's native rate.", "counter")
	hdrMarks = Header("powersensor_marks_total",
		"Time-synced user markers ingested per station.", "counter")
	hdrResyncs = Header("powersensor_resyncs_total",
		"Stream bytes skipped to regain protocol alignment.", "counter")
	hdrRingPoints = Header("powersensor_ring_points",
		"Downsampled points currently buffered per station.", "gauge")
	hdrVirtualSeconds = Header("powersensor_device_virtual_seconds",
		"Virtual time of each station's clock, in seconds.", "gauge")
	hdrStationHealth = Header("powersensor_station_health",
		"Watchdog health rank per station: 0 healthy, 1 degraded, 2 flatlined, 3 stale.", "gauge")
	hdrStationGaps = Header("powersensor_station_gaps_total",
		"Delivery-gap episodes the watchdog opened per station.", "counter")
	hdrStationFlatlines = Header("powersensor_station_flatlines_total",
		"Flatline episodes (runs of bit-identical blocks) detected per station.", "counter")
	hdrStationSpikesQ = Header("powersensor_station_spikes_quarantined_total",
		"Isolated glitch samples quarantined before ingest per station.", "counter")
	hdrStationRestarts = Header("powersensor_station_restarts_total",
		"Source restart attempts the watchdog issued per station.", "counter")

	// Self-telemetry tail families: the system observing itself. These
	// render fresh on every scrape, after (and outside) the cached fleet
	// section.
	hdrSelfIngestFold = Header(famIngestFold,
		"Latency of folding one ingest step's batch into the downsample state, history append included, fleet-wide, sampled 1-in-32 steps.", "histogram")
	hdrSelfPacing = Header(famPacing,
		"How far past its absolute schedule each paced fleet quantum completed; empty on unpaced fleets.", "histogram")
	hdrSelfStageRead = Header(famStageRead,
		"ReadInto latency per derived-source pipeline stage kind, inner source included; stage kinds never run are omitted.", "histogram")
	hdrSelfScrape = Header(famScrape,
		"Time to assemble one /metrics body, by serve path (full render vs cached fleet section).", "histogram")
	hdrSelfCacheHits = Header("powersensor_self_scrape_cache_hits_total",
		"Scrapes whose fleet section was served from the block-generation body cache.", "counter")
	hdrSelfCacheMisses = Header("powersensor_self_scrape_cache_misses_total",
		"Scrapes that re-rendered at least one shard segment on a cold or stale cache.", "counter")
	hdrSelfShardRenders = Header("powersensor_self_shard_renders_total",
		"Shard exposition segments re-rendered across all scrapes; one busy shard advances this by one per scrape, not by the shard count.", "counter")
	hdrSelfShardRender = Header(famShardRender,
		"Time to re-render one stale shard's exposition segment.", "histogram")
	hdrSelfShardStep = Header(famShardStep,
		"Wall time one fleet shard spent stepping its stations through one fleet quantum, paced or StepAll.", "histogram")
	hdrSelfEvents = Header("powersensor_self_events_total",
		"Fleet lifecycle events ever recorded (adopt, start, retire, close).", "counter")
	hdrSelfEventsDropped = Header("powersensor_self_events_dropped_total",
		"Lifecycle events overwritten after the event ring filled.", "counter")
	hdrSelfRingFill = Header("powersensor_self_ring_fill_ratio",
		"Fleet-wide ring occupancy: downsampled points held over total ring capacity.", "gauge")
	hdrSelfHistPoints = Header("powersensor_self_history_points",
		"Points held across every station's compressed long-horizon history series.", "gauge")
	hdrSelfHistBytes = Header("powersensor_self_history_bytes",
		"Compressed bytes held across every station's history series.", "gauge")
	hdrSelfHistBlocks = Header("powersensor_self_history_blocks",
		"Sealed compressed blocks held across every station's history series.", "gauge")
	hdrSelfHistRatio = Header("powersensor_self_history_compression_ratio",
		"Fleet-wide history compression ratio: raw float64 bytes over compressed bytes; 0 while empty.", "gauge")
	hdrSelfHistQuery = Header(famHistQuery,
		"Time one windowed energy query took.", "histogram")
	hdrBuildInfo = Header("powersensor_build_info",
		"Build identity of this daemon; always 1.", "gauge")
	hdrScrapeDuration = Header("powersensor_scrape_duration_seconds",
		"Wall time spent rendering this scrape.", "gauge")
)

// Histogram family names, shared by each family's HELP/TYPE header and
// its pre-rendered series.
const (
	famIngestFold  = "powersensor_self_ingest_fold_seconds"
	famPacing      = "powersensor_self_pacing_late_seconds"
	famStageRead   = "powersensor_self_stage_read_seconds"
	famScrape      = "powersensor_self_scrape_seconds"
	famShardRender = "powersensor_self_shard_render_seconds"
	famShardStep   = "powersensor_self_shard_step_seconds"
	famHistQuery   = "powersensor_self_history_query_seconds"
)

// nDevFams counts the per-device exposition families — the ones rendered
// into segments and concatenated family-major at assembly. The
// three fleet-scalar families (devices, adopted, retired) precede them in
// the body but are appended directly, not segmented.
const nDevFams = 16

// devFamHdrs lists the per-device family HELP/TYPE blocks in exposition
// order, index-aligned with the family switch in appendDevFam and the
// offsets of every Segment.
var devFamHdrs = [nDevFams]string{
	hdrSourceInfo, hdrSourceRate, hdrSourceOverhead,
	hdrWatts, hdrBoardWatts, hdrJoules,
	hdrSamples, hdrMarks, hdrResyncs,
	hdrRingPoints, hdrVirtualSeconds,
	hdrStationHealth, hdrStationGaps, hdrStationFlatlines,
	hdrStationSpikesQ, hdrStationRestarts,
}

// HistSeries is a pre-rendered exposition histogram series: the family's
// _bucket/_sum/_count names joined once, a {le="..."} block per bucket
// with any extra labels folded in, and the plain block the _sum/_count
// lines carry. Build one per (family, label set) ahead of scraping — the
// exporter's self families are rendered once at package load, a head's
// per leaf at construction — so Append renders the whole series from
// cached strings and freshly formatted numbers only.
type HistSeries struct {
	bucketName, sumName, countName string
	buckets                        [obs.NumBuckets]string
	plain                          string
}

// NewHistSeries pre-renders the series of family with the extra labels
// given as a rendered `k="v"` fragment ("" for none).
func NewHistSeries(family, extra string) *HistSeries {
	hs := &HistSeries{
		bucketName: family + "_bucket",
		sumName:    family + "_sum",
		countName:  family + "_count",
	}
	for i := range hs.buckets {
		le := "+Inf"
		if i < obs.NumBuckets-1 {
			le = strconv.FormatFloat(obs.BucketBound(i).Seconds(), 'g', -1, 64)
		}
		if extra == "" {
			hs.buckets[i] = `{le="` + le + `"}`
		} else {
			hs.buckets[i] = `{` + extra + `,le="` + le + `"}`
		}
	}
	if extra != "" {
		hs.plain = `{` + extra + `}`
	}
	return hs
}

// Append renders the histogram snapshot in exposition form: cumulative
// _bucket lines (the last is the +Inf bucket, equal to _count by
// construction — see obs.Hist.Snapshot), then _sum and _count.
func (h *HistSeries) Append(buf []byte, snap *obs.HistSnapshot) []byte {
	var cum uint64
	for i := 0; i < obs.NumBuckets; i++ {
		cum += snap.Buckets[i]
		buf = AppendSample(buf, h.bucketName, h.buckets[i], float64(cum))
	}
	buf = AppendSample(buf, h.sumName, h.plain, snap.Sum.Seconds())
	return AppendSample(buf, h.countName, h.plain, float64(snap.Count))
}

// The self families' histogram series, rendered once at package load.
var (
	ingestFoldSeries   = NewHistSeries(famIngestFold, "")
	pacingSeries       = NewHistSeries(famPacing, "")
	scrapeRenderSeries = NewHistSeries(famScrape, `path="render"`)
	scrapeCachedSeries = NewHistSeries(famScrape, `path="cached"`)
	shardRenderSeries  = NewHistSeries(famShardRender, "")
	shardStepSeries    = NewHistSeries(famShardStep, "")
	histQuerySeries    = NewHistSeries(famHistQuery, "")

	// stageSeries is index-aligned with pipeline.Stages.
	stageSeries = func() []*HistSeries {
		var out []*HistSeries
		for _, stage := range pipeline.Stages {
			out = append(out, NewHistSeries(famStageRead, `stage="`+Escape(stage)+`"`))
		}
		return out
	}()

	// buildInfoLine is the one constant sample of powersensor_build_info,
	// rendered once at load from the link-time-stamped version.
	buildInfoLine = "powersensor_build_info{version=\"" + Escape(version.Version) +
		"\",go=\"" + Escape(version.GoVersion()) + "\"} 1\n"
)

// AppendSample renders one exposition line: name, optional label block,
// value, newline — all appends into buf. Integral values (most of a
// scrape: counters, rates, the info gauge) take the integer formatter,
// several times cheaper than shortest-float; both spell integers below
// 1e15 identically, so the output is unchanged.
func AppendSample(buf []byte, name, labels string, v float64) []byte {
	buf = append(buf, name...)
	buf = append(buf, labels...)
	buf = append(buf, ' ')
	if i := int64(v); float64(i) == v && (i > -1e15 && i < 1e15) {
		buf = strconv.AppendInt(buf, i, 10)
	} else {
		buf = strconv.AppendFloat(buf, v, 'g', -1, 64)
	}
	return append(buf, '\n')
}

// metrics renders the Prometheus text exposition format. The fleet
// section is assembled from per-shard segments: each fleet shard's
// stations render into that shard's cached segment (keyed by the shard's
// block-boundary generation), and the body concatenates segment slices
// family-major so the exposition stays grouped by family. A scrape
// re-renders only the shards whose generation advanced; on an idle fleet
// the whole section is memcpys. Within a family, rows are grouped by
// shard (name-ordered within each shard) — the exposition format orders
// families, not rows, so scrapers are indifferent, and /api/fleet still
// serves the globally name-sorted view. The self-telemetry tail
// (appendSelf) renders fresh on every scrape so the daemon's view of
// itself never goes stale behind its own cache.
func (e *Exporter) metrics(w http.ResponseWriter, _ *http.Request) {
	began := time.Now()
	st := e.scratch.Get().(*scrapeState)
	// Churn counters load before the segments are staged: a scraper
	// diffing adopted-retired against the device count then sees the
	// counters lag — never lead — the per-shard lists. Retired loads
	// first: adopted only grows and bounds retired at every instant, so
	// reading it second keeps retired <= adopted within one exposition
	// even when churn cycles complete between the two loads.
	retired, adopted := e.mgr.Retired(), e.mgr.Adopted()
	// Stage every shard's segment, re-rendering the stale ones. Assembly
	// below runs from the staged copies with no locks held, so a slow
	// shard render on one scrape cannot stall another scrape's memcpys.
	cached := true
	for s := range e.shards {
		if e.stageShard(s, st) {
			cached = false
		}
	}
	if cached {
		e.cacheHits.Add(1)
	} else {
		e.cacheMisses.Add(1)
	}

	// Assemble: fleet scalars, then each per-device family concatenated
	// across shards.
	buf := st.buf[:0]
	buf = append(buf, hdrFleetDevices...)
	buf = AppendSample(buf, "powersensor_fleet_devices", "", float64(e.mgr.Size()))
	buf = append(buf, hdrFleetAdopted...)
	buf = AppendSample(buf, "powersensor_fleet_adopted_total", "", float64(adopted))
	buf = append(buf, hdrFleetRetired...)
	buf = AppendSample(buf, "powersensor_fleet_retired_total", "", float64(retired))
	buf = AppendSegments(buf, st.segs)

	buf = e.appendSelf(buf, &st.hist, began)
	// The scrape records itself after its own tail rendered, so each
	// body's scrape histogram covers every scrape before this one.
	if cached {
		e.cachedHist.Record(time.Since(began))
	} else {
		e.renderHist.Record(time.Since(began))
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write(buf)
	st.buf = buf
	e.scratch.Put(st)
}

// stageShard copies shard s's segment into st, first re-rendering it if
// the shard's generation moved since the last render, and reports whether
// it re-rendered.
//
// The generation is loaded under the shard lock BEFORE the snapshot: if
// a block lands mid-render the stored generation is already stale and
// the next scrape re-renders — the conservative direction. Holding the
// lock across render also keeps same-shard renders single-flight: were
// two same-generation renders allowed to interleave, the one holding the
// OLDER snapshot could store last (per-step published cells such as
// samples and overhead advance without changing the generation), and
// later cache hits would serve counters below values the fresher render
// already returned — a counter regression scrapers would read as a
// reset.
func (e *Exporter) stageShard(s int, st *scrapeState) bool {
	sc := &e.shards[s]
	sc.mu.Lock()
	defer sc.mu.Unlock()
	gen := e.mgr.ShardGen(s)
	stale := !sc.rendered || sc.gen != gen
	if stale {
		renderBegan := time.Now()
		st.snap = e.mgr.ShardSnapshotInto(s, st.snap[:0])
		sc.r.Render(st.snap)
		sc.gen, sc.rendered = gen, true
		e.shardRenders.Add(1)
		e.shardRenderHist.Record(time.Since(renderBegan))
	}
	sc.r.CopySegment(&st.segs[s])
	return stale
}

// appendDevFam appends one station's rows of per-device family f —
// index-aligned with devFamHdrs.
func appendDevFam(buf []byte, f int, s *fleet.Status, l *devLabels) []byte {
	switch f {
	case 0:
		return AppendSample(buf, "powersensor_source_info", l.info, 1)
	case 1:
		return AppendSample(buf, "powersensor_source_rate_hz", l.dev, s.RateHz)
	case 2:
		return AppendSample(buf, "powersensor_source_overhead_seconds", l.dev, s.OverheadSeconds)
	case 3:
		for m, watts := range s.PairWatts {
			buf = AppendSample(buf, "powersensor_watts", l.pairs[m], watts)
		}
		return buf
	case 4:
		return AppendSample(buf, "powersensor_board_watts", l.dev, s.Watts)
	case 5:
		return AppendSample(buf, "powersensor_joules_total", l.dev, s.Joules)
	case 6:
		return AppendSample(buf, "powersensor_samples_total", l.dev, float64(s.Samples))
	case 7:
		return AppendSample(buf, "powersensor_marks_total", l.dev, float64(s.Marks))
	case 8:
		return AppendSample(buf, "powersensor_resyncs_total", l.dev, float64(s.Resyncs))
	case 9:
		return AppendSample(buf, "powersensor_ring_points", l.dev, float64(s.RingLen))
	case 10:
		return AppendSample(buf, "powersensor_device_virtual_seconds", l.dev, s.Now.Seconds())
	case 11:
		return AppendSample(buf, "powersensor_station_health", l.dev, float64(fleet.HealthLevel(s.Health)))
	case 12:
		return AppendSample(buf, "powersensor_station_gaps_total", l.dev, float64(s.Gaps))
	case 13:
		return AppendSample(buf, "powersensor_station_flatlines_total", l.dev, float64(s.Flatlines))
	case 14:
		return AppendSample(buf, "powersensor_station_spikes_quarantined_total", l.dev, float64(s.SpikesQuarantined))
	default:
		return AppendSample(buf, "powersensor_station_restarts_total", l.dev, float64(s.Restarts))
	}
}

// appendSelf renders the self-telemetry tail — fresh on every scrape,
// never cached. Everything here reads atomic cells (histogram buckets,
// counters, the devices' published ring lengths): no manager lock, no
// ingest mutex, no allocation beyond the buffer's own growth, so the
// tail keeps both the cache-hit fast path and the lock-freedom of the
// scrape intact. hs is the scrape's pooled snapshot scratch.
func (e *Exporter) appendSelf(buf []byte, hs *obs.HistSnapshot, began time.Time) []byte {
	buf = append(buf, hdrSelfIngestFold...)
	e.mgr.IngestFoldHist().Snapshot(hs)
	buf = ingestFoldSeries.Append(buf, hs)
	buf = append(buf, hdrSelfPacing...)
	e.mgr.PaceLatenessHist().Snapshot(hs)
	buf = pacingSeries.Append(buf, hs)
	// A stage kind no station of this fleet ever ran would render as an
	// all-zero distribution, so those are omitted rather than claiming an
	// empty measurement.
	buf = append(buf, hdrSelfStageRead...)
	stages := e.mgr.StageHists()
	for i := range stages {
		stages[i].Snapshot(hs)
		if hs.Count == 0 {
			continue
		}
		buf = stageSeries[i].Append(buf, hs)
	}
	buf = append(buf, hdrSelfScrape...)
	e.renderHist.Snapshot(hs)
	buf = scrapeRenderSeries.Append(buf, hs)
	e.cachedHist.Snapshot(hs)
	buf = scrapeCachedSeries.Append(buf, hs)
	buf = append(buf, hdrSelfCacheHits...)
	buf = AppendSample(buf, "powersensor_self_scrape_cache_hits_total", "", float64(e.cacheHits.Load()))
	buf = append(buf, hdrSelfCacheMisses...)
	buf = AppendSample(buf, "powersensor_self_scrape_cache_misses_total", "", float64(e.cacheMisses.Load()))
	buf = append(buf, hdrSelfShardRenders...)
	buf = AppendSample(buf, "powersensor_self_shard_renders_total", "", float64(e.shardRenders.Load()))
	buf = append(buf, hdrSelfShardRender...)
	e.shardRenderHist.Snapshot(hs)
	buf = shardRenderSeries.Append(buf, hs)
	buf = append(buf, hdrSelfShardStep...)
	e.mgr.ShardStepHist().Snapshot(hs)
	buf = shardStepSeries.Append(buf, hs)
	ev := e.mgr.Events()
	buf = append(buf, hdrSelfEvents...)
	buf = AppendSample(buf, "powersensor_self_events_total", "", float64(ev.Total()))
	buf = append(buf, hdrSelfEventsDropped...)
	buf = AppendSample(buf, "powersensor_self_events_dropped_total", "", float64(ev.Dropped()))
	buf = append(buf, hdrSelfRingFill...)
	held, capacity := e.mgr.RingOccupancy()
	ratio := 0.0
	if capacity > 0 {
		ratio = float64(held) / float64(capacity)
	}
	buf = AppendSample(buf, "powersensor_self_ring_fill_ratio", "", ratio)
	// The history tier's footprint, aggregated from the per-station
	// atomic counters, plus the shared query timings.
	hist := e.mgr.HistoryStats()
	buf = append(buf, hdrSelfHistPoints...)
	buf = AppendSample(buf, "powersensor_self_history_points", "", float64(hist.Points))
	buf = append(buf, hdrSelfHistBytes...)
	buf = AppendSample(buf, "powersensor_self_history_bytes", "", float64(hist.Bytes))
	buf = append(buf, hdrSelfHistBlocks...)
	buf = AppendSample(buf, "powersensor_self_history_blocks", "", float64(hist.Blocks))
	buf = append(buf, hdrSelfHistRatio...)
	buf = AppendSample(buf, "powersensor_self_history_compression_ratio", "", hist.Ratio())
	buf = append(buf, hdrSelfHistQuery...)
	e.mgr.HistoryQueryHist().Snapshot(hs)
	buf = histQuerySeries.Append(buf, hs)
	buf = append(buf, hdrBuildInfo...)
	buf = append(buf, buildInfoLine...)
	buf = append(buf, hdrScrapeDuration...)
	buf = AppendSample(buf, "powersensor_scrape_duration_seconds", "", time.Since(began).Seconds())
	return buf
}

// labelEscaper escapes label values per the exposition format.
var labelEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`)

// Escape escapes a label value per the exposition format.
func Escape(s string) string {
	return labelEscaper.Replace(s)
}

// fleetJSON serves the versioned /api/fleet body (see FleetJSON). The
// fleet generation doubles as the ETag: a client (a federation head
// polling many leaves) sending If-None-Match gets 304 with no body while
// the fleet sits at the same block-boundary fingerprint. The generation
// loads before the snapshot, so a block landing between the two reads
// makes the ETag conservatively old — the client refetches, never serves
// stale. The body is appended by AppendFleetJSON into the pooled scrape
// state from a pooled snapshot, and written once with its length.
func (e *Exporter) fleetJSON(w http.ResponseWriter, r *http.Request) {
	gen := e.mgr.Gen()
	etag := FleetETag(gen)
	h := w.Header()
	h.Set("ETag", etag)
	if r.Header.Get("If-None-Match") == etag {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	st := e.scratch.Get().(*scrapeState)
	st.snap = e.mgr.SnapshotInto(st.snap[:0])
	st.buf = AppendFleetJSON(st.buf[:0], gen, st.snap)
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(st.buf)))
	_, _ = w.Write(st.buf)
	e.scratch.Put(st)
}

// EventsHandler serves the tail of ring as an /api/events body: the
// most recent events oldest-first, plus the ring's lifetime totals. A
// gap between total and len(events) (or a first seq above dropped+1)
// means older events were overwritten. ?n=N caps the tail at the N most
// recent events (default 100, at most the ring's capacity). A fleet
// serves its lifecycle ring through it, a federation head its leaf
// up/down and breaker ring.
func EventsHandler(ring *obs.EventRing) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		max := 100
		if s := r.URL.Query().Get("n"); s != "" {
			n, err := strconv.Atoi(s)
			if err != nil || n < 1 {
				http.Error(w, fmt.Sprintf("bad n=%q (want a positive count)", s),
					http.StatusBadRequest)
				return
			}
			max = n
		}
		events := ring.Tail(max)
		if events == nil {
			events = []obs.Event{}
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(struct {
			Total   uint64      `json:"total"`
			Dropped uint64      `json:"dropped"`
			Events  []obs.Event `json:"events"`
		}{ring.Total(), ring.Dropped(), events})
	}
}

// deviceTrace serves the recent downsampled trace of one station.
func (e *Exporter) deviceTrace(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	d := e.mgr.Device(name)
	if d == nil {
		http.Error(w, fmt.Sprintf("unknown device %q (have %s)",
			name, strings.Join(e.mgr.Names(), ", ")), http.StatusNotFound)
		return
	}
	max := 0
	if s := r.URL.Query().Get("points"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 {
			http.Error(w, fmt.Sprintf("bad points=%q (want a positive count)", s),
				http.StatusBadRequest)
			return
		}
		max = n
	}
	tr := d.Trace(max)
	switch format := r.URL.Query().Get("format"); format {
	case "", "csv":
		w.Header().Set("Content-Type", "text/csv; charset=utf-8")
		w.Header().Set("Content-Disposition",
			fmt.Sprintf("attachment; filename=%s.csv", sanitizeFilename(name)))
		if err := tr.WriteCSV(w); err != nil {
			// Headers are gone; nothing useful to do but note it.
			return
		}
	case "json":
		writeTraceJSON(w, tr)
	default:
		http.Error(w, fmt.Sprintf("bad format=%q (want csv or json)", format),
			http.StatusBadRequest)
	}
}

// parseWindowTime parses a ?from= / ?to= query value: a plain number is
// seconds of virtual time, anything else must parse as a Go duration
// ("1.5s", "250ms"). Negative instants are rejected — virtual time
// starts at zero — and so are NaN, ±Inf and seconds past the Duration
// range, whose conversion to a Duration the language leaves undefined.
func parseWindowTime(s string) (time.Duration, error) {
	if secs, err := strconv.ParseFloat(s, 64); err == nil {
		ns := secs * float64(time.Second)
		switch {
		case math.IsNaN(ns) || math.IsInf(ns, 0):
			return 0, fmt.Errorf("non-finite instant %q", s)
		case ns < 0:
			return 0, fmt.Errorf("negative instant %q", s)
		case ns >= float64(math.MaxInt64):
			return 0, fmt.Errorf("instant %q exceeds the maximum %v", s, time.Duration(math.MaxInt64))
		}
		return time.Duration(ns), nil
	}
	d, err := time.ParseDuration(s)
	if err != nil || d < 0 {
		return 0, fmt.Errorf("want seconds or a non-negative duration, got %q", s)
	}
	return d, nil
}

// windowOf resolves a request's [from, to] window: from defaults to 0,
// to defaults to the station's current virtual time. An inverted window
// is not an error — it is a legitimate empty window, 0 J by contract.
func windowOf(r *http.Request, d *fleet.Device) (from, to time.Duration, err error) {
	to = d.Status().Now
	if s := r.URL.Query().Get("from"); s != "" {
		if from, err = parseWindowTime(s); err != nil {
			return 0, 0, fmt.Errorf("bad from=%s", err)
		}
	}
	if s := r.URL.Query().Get("to"); s != "" {
		if to, err = parseWindowTime(s); err != nil {
			return 0, 0, fmt.Errorf("bad to=%s", err)
		}
	}
	return from, to, nil
}

// deviceEnergy serves a windowed energy query over one station's
// long-horizon history tier: the HTTP face of Device.EnergyWindow.
func (e *Exporter) deviceEnergy(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	d := e.mgr.Device(name)
	if d == nil {
		http.Error(w, fmt.Sprintf("unknown device %q (have %s)",
			name, strings.Join(e.mgr.Names(), ", ")), http.StatusNotFound)
		return
	}
	from, to, err := windowOf(r, d)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	joules := d.EnergyWindow(from, to)
	var meanWatts float64
	if width := (to - from).Seconds(); width > 0 {
		meanWatts = joules / width
	}
	body := appendEnergyJSON(make([]byte, 0, 128), name, from, to, joules, meanWatts)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	_, _ = w.Write(body)
}

// appendEnergyJSON appends the /api/device/{name}/energy body: the
// device, the window's edges in seconds, the joules inside it and the
// mean watts over it (0 on an empty or inverted window, by the
// zero-interval contract). A non-finite energy — a station reading
// ±Inf — is written as null rather than failing the answer.
func appendEnergyJSON(b []byte, device string, from, to time.Duration, joules, meanWatts float64) []byte {
	b = append(b, `{"device":`...)
	b = AppendJSONString(b, device)
	b = append(b, `,"from_seconds":`...)
	b = appendJSONFloat(b, from.Seconds())
	b = append(b, `,"to_seconds":`...)
	b = appendJSONFloat(b, to.Seconds())
	b = append(b, `,"joules":`...)
	b = appendJSONFloat(b, joules)
	b = append(b, `,"mean_watts":`...)
	b = appendJSONFloat(b, meanWatts)
	return append(b, "}\n"...)
}

// writeTraceJSON answers with tr's JSON encoding, built in a buffer
// first: encoding/json refuses NaN and ±Inf readings, and that refusal
// becomes a 500 naming it instead of a 200 with an empty body.
func writeTraceJSON(w http.ResponseWriter, tr *trace.Trace) {
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		http.Error(w, fmt.Sprintf("encoding trace: %v", err), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	_, _ = w.Write(buf.Bytes())
}

// deviceHistory serves a long-range summed-power trace decoded from one
// station's compressed history tier, reusing the trace package's CSV and
// JSON writers. ?from=/?to= window the export, ?points=N decimates it by
// stride to at most N points (default 2000 — a window spanning hours of
// millisecond points would otherwise ship millions of rows), and the
// trace carries one channel: the station's summed board power.
func (e *Exporter) deviceHistory(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	d := e.mgr.Device(name)
	if d == nil {
		http.Error(w, fmt.Sprintf("unknown device %q (have %s)",
			name, strings.Join(e.mgr.Names(), ", ")), http.StatusNotFound)
		return
	}
	from, to, err := windowOf(r, d)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	max := 2000
	if s := r.URL.Query().Get("points"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 {
			http.Error(w, fmt.Sprintf("bad points=%q (want a positive count)", s),
				http.StatusBadRequest)
			return
		}
		max = n
	}
	pts := d.HistoryInto(nil, from, to)
	// Stride decimation keeps the first and the stride-aligned points; the
	// trapezoid over the survivors still brackets the window's span.
	if len(pts) > max {
		stride := (len(pts) + max - 1) / max
		kept := pts[:0]
		for i := 0; i < len(pts); i += stride {
			kept = append(kept, pts[i])
		}
		pts = kept
	}
	tr := &trace.Trace{Pairs: 1, Points: make([]trace.Point, 0, len(pts))}
	for _, p := range pts {
		tr.Points = append(tr.Points, trace.Point{
			Time: p.Time, Watts: []float64{p.Watts}, TotalW: p.Watts,
		})
	}
	switch format := r.URL.Query().Get("format"); format {
	case "", "csv":
		w.Header().Set("Content-Type", "text/csv; charset=utf-8")
		w.Header().Set("Content-Disposition",
			fmt.Sprintf("attachment; filename=%s-history.csv", sanitizeFilename(name)))
		if err := tr.WriteCSV(w); err != nil {
			return
		}
	case "json":
		writeTraceJSON(w, tr)
	default:
		http.Error(w, fmt.Sprintf("bad format=%q (want csv or json)", format),
			http.StatusBadRequest)
	}
}

// sanitizeFilename keeps the download filename header safe.
func sanitizeFilename(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
			return r
		default:
			return '_'
		}
	}, s)
}
