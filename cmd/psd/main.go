// Command psd is the PowerSensor3 fleet daemon: it assembles a fleet of
// simulated measurement stations, steps them all on one paced loop, and
// serves the fleet's telemetry over HTTP — the service counterpart of the
// one-shot command line tools.
//
// Stations are heterogeneous: every backend is a streaming source
// (internal/source), so 20 kHz PowerSensor3 rigs serve next to the
// paper's software-meter baselines polled at their native rates.
//
// Usage:
//
//	psd [-listen :9120] [-fleet spec] [-seed 1] [-rate 1] [-slice 5ms]
//	    [-block 20] [-ring 4096] [-shards 8] [-history 1048576]
//	    [-warmup 2s] [-log-format text] [-debug-addr addr] [-version]
//
//	psd -federate leaves [-federate-interval 1s] [-federate-timeout dur]
//	    [-listen :9120] [-log-format text] [-debug-addr addr]
//
// The first form is a leaf: it owns a local fleet and serves it. The
// second is a federation head (internal/federation): it owns no stations
// of its own, polls the named leaf daemons' /api/fleet with per-leaf
// timeouts, retries and circuit breakers, and serves the merged view —
// one /metrics with a leaf label on every station series, one merged
// /api/fleet, per-device drill-downs proxied to the owning leaf. A dead
// leaf's stations serve marked stale and powersensor_leaf_up drops to 0;
// the aggregate scrape never stalls on it.
//
// Flags:
//
//	-listen      HTTP listen address (default :9120)
//	-fleet       comma-separated name=kindspec stations. The kindspec grammar —
//	             station kinds, "@index" seed pinning, and the "|"-separated
//	             derived-source pipe stages (resample, calib, ratelimit,
//	             smooth) plus the seed-pinned fault-injection stages
//	             (dropout:P:DUR, stuck:P:DUR, spike:P:MAG, skew:PPM,
//	             jitter:SD) — is documented in one place:
//	             simsetup.ParseFleet. Faulted stations replay their failure
//	             scenario identically for a given -seed, so a fleet that
//	             degrades on Tuesday degrades the same way in Wednesday's
//	             repro. The default is simsetup.DefaultFleetSpec, a mixed
//	             fleet of four PowerSensor3 rigs, two software meters and
//	             two derived views — including gpu0lo, a 1 kHz resampled +
//	             recalibrated view of the same rig gpu0 serves raw at
//	             20 kHz. Example faulted station:
//
//	               flaky0=rtx4000ada|dropout:0.1:5ms|spike:0.01:8
//
//	             The fleet watchdog (internal/fleet doc.go) detects the
//	             injected faults and publishes per-station health — the
//	             powersensor_station_health gauge and the
//	             powersensor_station_{gaps,flatlines,spikes_quarantined,
//	             restarts}_total counters on /metrics.
//	-seed        base simulation seed; each station derives its own
//	-rate        virtual seconds simulated per wall second (1 = real time,
//	             0 = as fast as the host allows)
//	-slice       virtual-time quantum the fleet's pacer advances every
//	             station by per iteration
//	-block       downsample window per ring point, in 20 kHz sample periods
//	             (20 → 1 ms points); each station derives its own block size
//	             from that window and its source's native rate
//	-ring        per-station ring capacity, in downsampled points
//	-shards      fleet shard count (1–64; default 8). Stations hash to shards
//	             by name; each shard keeps its own device list, memory pool
//	             and cached /metrics exposition segment, so churn and
//	             downsample-block activity on one station invalidate 1/Nth
//	             of the scrape instead of all of it. The shard count is also
//	             the stepping parallelism: a fleet of 64 or more stations is
//	             stepped by one persistent worker per shard, smaller fleets
//	             serially. -shards 1 recovers the unsharded, serially stepped
//	             daemon; large fleets (thousands of stations) want the
//	             default or higher
//	-history     per-station compressed history budget, in bytes (default
//	             1 MiB — weeks of millisecond-averaged points at the tier's
//	             typical >4x compression). The long-horizon tier sits behind
//	             each station's ring, takes every ring point as the station
//	             steps, and answers the windowed energy API; negative
//	             disables it, leaving energy queries to the ring's short
//	             retention
//	-warmup      virtual time advanced synchronously before serving, so the
//	             first scrape already sees data
//	-log-format  "text" (default) or "json": structured log/slog output on
//	             stderr; station lifecycle lines carry station/kind fields
//	-debug-addr  when set (e.g. "localhost:6060"), serve net/http/pprof on a
//	             second listener at that address — profiling stays off the
//	             scrape port and off by default
//	-version     print the build version (stamped via
//	             -ldflags "-X repro/internal/version.Version=...") and exit
//	-federate    run as a federation head over these leaves instead of
//	             serving a local fleet. Comma-separated entries, each
//	             name=URL or a bare host:port (auto-named by its address,
//	             http scheme assumed); "@path" reads the same entries
//	             from a file, one per line, # comments allowed:
//
//	               psd -federate rack0=10.0.0.1:9120,rack1=10.0.0.2:9120
//	               psd -federate @/etc/psd/leaves.conf
//
//	             The fleet-building flags (-fleet, -seed, -rate, -slice,
//	             -block, -ring, -shards, -history, -warmup) do not apply
//	             to a head and are rejected if set
//	-federate-interval  head poll cadence per leaf (default 1s)
//	-federate-timeout   per-attempt poll timeout against one leaf
//	             (default half the interval, clamped to [50ms, 2s]); a
//	             leaf slower than this fails its poll at the deadline
//	             instead of delaying the round. Each poll retries once
//	             with backoff before counting as a failure; 3 consecutive
//	             failures open the leaf's circuit breaker, which rejects
//	             polls for 4 intervals and then admits a half-open probe
//
// Endpoints:
//
//	GET  /metrics                     Prometheus text exposition, including
//	                                  the powersensor_self_* self-telemetry
//	                                  families and powersensor_build_info
//	GET  /api/fleet                   JSON status of every station
//	GET  /api/events                  JSON tail of the fleet lifecycle event
//	                                  ring (adopt/start/retire/close, ?n=N
//	                                  caps the tail, default 100)
//	GET  /api/device/{name}/trace     recent trace (?format=csv|json, ?points=N)
//	GET  /api/device/{name}/energy    windowed energy query over the
//	                                  long-horizon history tier: ?from= and
//	                                  ?to= (seconds or Go durations) bound
//	                                  the window; the JSON answer carries
//	                                  joules and mean watts, and an empty
//	                                  window is exactly 0 J
//	GET  /api/device/{name}/history   long-range summed-power trace decoded
//	                                  from the compressed tier (?from=, ?to=,
//	                                  ?points=N decimation, ?format=csv|json)
//	GET  /healthz                     fleet health probe: 200 with
//	                                  {"stations":N,"degraded":K} while any
//	                                  station serves, 503 once every station
//	                                  is stale or flatlined — wired for
//	                                  load-balancer checks that should stop
//	                                  routing to a daemon whose whole fleet
//	                                  went dark
//	POST /api/fleet/add               hot-add a station to the running fleet:
//	                                  name= and kind= (any -fleet kindspec,
//	                                  pipe stages included) as form or query
//	                                  parameters
//	POST /api/fleet/remove/{name}     retire a station: stepping stops, the
//	                                  final downsample block drains, and its
//	                                  series leave /metrics
//
// A federation head serves instead:
//
//	GET  /metrics                     merged exposition: every leaf's
//	                                  station families under a leaf label,
//	                                  plus powersensor_leaf_up, breaker
//	                                  state, per-leaf poll histograms
//	GET  /api/fleet                   merged JSON: per-leaf poll state and
//	                                  every station with leaf + stale
//	GET  /api/events                  leaf up/down and breaker transitions
//	GET  /api/device/{leaf}/{name}/energy    proxied to the owning leaf
//	GET  /api/device/{leaf}/{name}/trace     (503 while the leaf is down)
//	GET  /api/device/{leaf}/{name}/history
//	GET  /healthz                     200 while any leaf is up, 503 once
//	                                  every leaf is down
//
// With -debug-addr set, the debug listener serves GET /debug/pprof/ (and
// the cmdline/profile/symbol/trace handlers under it).
//
// Every listener sets ReadHeaderTimeout/ReadTimeout/IdleTimeout, and
// SIGINT/SIGTERM drain in-flight requests through http.Server.Shutdown
// (5 s deadline) before the fleet manager or head poller closes.
//
// The admin endpoints make the serving fleet dynamic — stations come and
// go without restarting the daemon, mirroring rigs being recabled or
// vendor meters restarting. Churn is observable three ways: /metrics
// carries powersensor_fleet_adopted_total and
// powersensor_fleet_retired_total, /api/events carries the structured
// lifecycle record of every transition, and scrapes during churn stay
// well-formed. For example:
//
//	$ curl -X POST 'localhost:9120/api/fleet/add?name=gpu2&kind=synth'
//	{"name":"gpu2","kind":"synth"}
//	$ curl -X POST localhost:9120/api/fleet/remove/gpu2
//	{"name":"gpu2","retired":true}
//
// A scrape looks like:
//
//	$ curl -s localhost:9120/metrics | grep -e gpu0 -e cpu0
//	powersensor_source_info{device="gpu0",backend="powersensor3",kind="rtx4000ada"} 1
//	powersensor_source_info{device="gpu0lo",backend="powersensor3+resample+calib",kind="rtx4000ada@0|resample:1000|calib:0.98:0.25"} 1
//	powersensor_source_info{device="cpu0",backend="rapl",kind="rapl"} 1
//	powersensor_source_rate_hz{device="gpu0"} 20000
//	powersensor_source_rate_hz{device="gpu0lo"} 1000
//	powersensor_source_rate_hz{device="cpu0"} 1000
//	powersensor_source_overhead_seconds{device="cpu0lim"} 0.00041...
//	powersensor_watts{device="gpu0",pair="2",channel="pcie8pin"} 55.88...
//	powersensor_watts{device="cpu0",pair="0",channel="package"} 47.3...
//	powersensor_board_watts{device="gpu0"} 67.7...
//	powersensor_joules_total{device="gpu0"} 154.9...
//	powersensor_samples_total{device="gpu0"} 40000
//	...
//
// The raw 20 kHz station and its 1 kHz derived view serve concurrently,
// each paced by its own (stage-rewritten) rate; the rate-limited meter's
// cumulative sampling overhead — the monitoring footprint the throttle
// bounds — is a first-class scrape series.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/export"
	"repro/internal/federation"
	"repro/internal/fleet"
	"repro/internal/simsetup"
	"repro/internal/version"
)

func main() {
	listen := flag.String("listen", ":9120", "HTTP listen address")
	spec := flag.String("fleet", simsetup.DefaultFleetSpec,
		"fleet spec: comma-separated name=kindspec (grammar: simsetup.ParseFleet)")
	seed := flag.Uint64("seed", 1, "base simulation seed")
	rate := flag.Float64("rate", 1, "virtual seconds per wall second (0 = unpaced)")
	slice := flag.Duration("slice", 5*time.Millisecond, "virtual-time quantum per iteration")
	block := flag.Int("block", 20, "sample sets averaged per ring point")
	ring := flag.Int("ring", 4096, "per-station ring capacity in points")
	shards := flag.Int("shards", 8, "fleet shard count and stepping parallelism, 1-64 (1 = unsharded, serial)")
	histBytes := flag.Int("history", 0,
		"per-station compressed history budget in bytes (0 = 1 MiB default, negative = disabled)")
	warmup := flag.Duration("warmup", 2*time.Second, "virtual time simulated before serving")
	logFormat := flag.String("log-format", "text", "log output format: text or json")
	debugAddr := flag.String("debug-addr", "",
		"serve net/http/pprof on this address (empty = no debug listener)")
	showVersion := flag.Bool("version", false, "print the build version and exit")
	federate := flag.String("federate", "",
		"run as a federation head over these leaves (name=URL or host:port, comma-separated; @path reads a file)")
	fedInterval := flag.Duration("federate-interval", time.Second, "head poll cadence per leaf")
	fedTimeout := flag.Duration("federate-timeout", 0,
		"per-attempt poll timeout against one leaf (0 = half the interval)")
	flag.Parse()
	if *showVersion {
		fmt.Printf("psd %s %s\n", version.Version, version.GoVersion())
		return
	}
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: psd [flags]; see -h")
		os.Exit(2)
	}
	logger, err := newLogger(*logFormat, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "psd:", err)
		os.Exit(2)
	}
	if *federate != "" {
		// Head mode owns no stations: a fleet-building flag set alongside
		// -federate is a misconfiguration, rejected rather than ignored.
		if set := fleetFlagsSet(); len(set) != 0 {
			fmt.Fprintf(os.Stderr, "psd: -federate (head mode) rejects fleet flags: -%s\n",
				strings.Join(set, ", -"))
			os.Exit(2)
		}
		leaves, err := parseLeaves(*federate)
		if err != nil {
			fmt.Fprintln(os.Stderr, "psd:", err)
			os.Exit(2)
		}
		if err := runHead(*listen, *debugAddr, leaves, *fedInterval, *fedTimeout, logger); err != nil {
			logger.Error("exiting", "err", err)
			os.Exit(1)
		}
		return
	}
	if *rate < 0 {
		fmt.Fprintln(os.Stderr, "psd: -rate must be >= 0 (0 = unpaced)")
		os.Exit(2)
	}
	if *shards < 1 || *shards > fleet.MaxShards {
		fmt.Fprintf(os.Stderr, "psd: -shards must be in [1, %d]\n", fleet.MaxShards)
		os.Exit(2)
	}
	if err := run(*listen, *debugAddr, *spec, *seed, *rate, *slice, *block, *ring,
		*shards, *histBytes, *warmup, logger); err != nil {
		logger.Error("exiting", "err", err)
		os.Exit(1)
	}
}

// fleetFlagsSet lists the fleet-building flags the user set explicitly —
// the ones head mode rejects.
func fleetFlagsSet() []string {
	fleetOnly := map[string]bool{
		"fleet": true, "seed": true, "rate": true, "slice": true,
		"block": true, "ring": true, "shards": true, "history": true,
		"warmup": true,
	}
	var set []string
	flag.Visit(func(f *flag.Flag) {
		if fleetOnly[f.Name] {
			set = append(set, f.Name)
		}
	})
	return set
}

// parseLeaves parses the -federate value: comma-separated name=URL or
// bare host:port entries (bare entries are named by their address), or
// "@path" naming a file with one entry per line, # comments and blank
// lines skipped.
func parseLeaves(spec string) ([]federation.Leaf, error) {
	var entries []string
	if strings.HasPrefix(spec, "@") {
		raw, err := os.ReadFile(spec[1:])
		if err != nil {
			return nil, fmt.Errorf("-federate: %w", err)
		}
		for _, line := range strings.Split(string(raw), "\n") {
			if i := strings.Index(line, "#"); i >= 0 {
				line = line[:i]
			}
			if line = strings.TrimSpace(line); line != "" {
				entries = append(entries, line)
			}
		}
	} else {
		for _, e := range strings.Split(spec, ",") {
			if e = strings.TrimSpace(e); e != "" {
				entries = append(entries, e)
			}
		}
	}
	if len(entries) == 0 {
		return nil, errors.New("-federate: no leaves given")
	}
	leaves := make([]federation.Leaf, 0, len(entries))
	for _, e := range entries {
		var l federation.Leaf
		if name, url, ok := strings.Cut(e, "="); ok {
			l = federation.Leaf{Name: strings.TrimSpace(name), URL: strings.TrimSpace(url)}
			if l.Name == "" || l.URL == "" {
				return nil, fmt.Errorf("-federate: bad entry %q (want name=URL)", e)
			}
		} else {
			l = federation.Leaf{Name: e, URL: e}
		}
		leaves = append(leaves, l)
	}
	return leaves, nil
}

// newLogger builds the daemon's structured logger: log/slog in text form
// by default, JSON for log aggregators.
func newLogger(format string, w io.Writer) (*slog.Logger, error) {
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(w, nil)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, nil)), nil
	}
	return nil, fmt.Errorf("bad -log-format %q (want text or json)", format)
}

// admin serves the fleet lifecycle: hot-adding and retiring stations on
// the running manager. It builds station sources the same way the -fleet
// flag does (simsetup.BuildStation, so pipe-stage kindspecs work over
// HTTP too), deriving each new station's seed from the daemon's base
// seed and a monotonic adoption index so hot-added rigs decorrelate like
// spec-listed ones.
type admin struct {
	mgr  *fleet.Manager
	log  *slog.Logger
	seed uint64
	next atomic.Uint64 // station index for seed derivation
}

func (a *admin) add(w http.ResponseWriter, r *http.Request) {
	name, kind := r.FormValue("name"), r.FormValue("kind")
	if name == "" || kind == "" {
		http.Error(w, "want name= and kind= parameters", http.StatusBadRequest)
		return
	}
	src, err := simsetup.BuildStation(kind, a.seed, int(a.next.Add(1)))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if _, err := a.mgr.Add(name, kind, src); err != nil {
		src.Close()
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	a.log.Info("adopted station", "station", name, "kind", kind)
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]string{"name": name, "kind": kind})
}

func (a *admin) remove(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := a.mgr.Remove(name); err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	a.log.Info("retired station", "station", name)
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]any{"name": name, "retired": true})
}

// setup assembles the fleet and its HTTP handler — the daemon's wiring,
// split from run so tests can serve it through httptest. The handler is
// the exporter's read-only surface plus the daemon's lifecycle admin
// endpoints. logger may be nil, meaning discard (the test form).
func setup(spec string, seed uint64, rate float64, slice time.Duration,
	block, ring, shards, histBytes int, warmup time.Duration, logger *slog.Logger) (*fleet.Manager, http.Handler, error) {
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	mgr, err := fleet.FromSpec(spec, seed, fleet.Config{
		Slice: slice, Block: block, RingCap: ring, Rate: rate, Shards: shards,
		HistoryBytes: histBytes,
	})
	if err != nil {
		return nil, nil, err
	}
	if warmup > 0 {
		logger.Info("warming up", "virtual", warmup, "stations", mgr.Size())
		mgr.StepAll(warmup)
	}
	a := &admin{mgr: mgr, log: logger, seed: seed}
	a.next.Store(uint64(mgr.Size()))
	mux := http.NewServeMux()
	mux.Handle("/", export.New(mgr).Handler())
	mux.HandleFunc("POST /api/fleet/add", a.add)
	mux.HandleFunc("POST /api/fleet/remove/{name}", a.remove)
	return mgr, mux, nil
}

// debugMux builds the -debug-addr listener's routes: the net/http/pprof
// handlers, explicitly registered on their own mux so profiling is never
// reachable through the scrape port (importing the package for its side
// effect would mount it on http.DefaultServeMux instead).
func debugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	return mux
}

// newHTTPServer wraps a handler in a server with the slow-loris limits
// every psd listener sets: a peer that never finishes its request
// headers cannot pin a connection (ReadHeaderTimeout), a trickling body
// cannot hold one forever (ReadTimeout), and idle keep-alives are
// bounded (IdleTimeout). Federation heads polling leaves over real
// networks — and being polled by real scrapers — make these
// non-optional. WriteTimeout stays unset: trace and history downloads
// legitimately stream large bodies.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
}

// shutdownDeadline bounds how long a SIGINT/SIGTERM drain waits for
// in-flight requests before the daemon exits anyway.
const shutdownDeadline = 5 * time.Second

// serveUntilSignal starts srv (and the debug listener when non-nil) and
// blocks until the listener fails or SIGINT/SIGTERM arrives. On a signal
// it drains in-flight requests through http.Server.Shutdown under
// shutdownDeadline, so a scrape racing the signal completes instead of
// dying mid-body; the caller closes its own subsystems (fleet manager,
// head poller) after this returns — after the drain.
func serveUntilSignal(srv, dsrv *http.Server, logger *slog.Logger) error {
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	if dsrv != nil {
		go func() {
			// A failed debug listener (port taken, bad address) downgrades
			// profiling, not serving: log it and keep the daemon up.
			if err := dsrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
				logger.Error("debug listener failed", "addr", dsrv.Addr, "err", err)
			}
		}()
		logger.Info("debug listener up", "addr", dsrv.Addr)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	select {
	case err := <-errc:
		return err
	case s := <-sig:
		logger.Info("shutting down", "signal", s.String())
		ctx, cancel := context.WithTimeout(context.Background(), shutdownDeadline)
		defer cancel()
		if dsrv != nil {
			_ = dsrv.Close()
		}
		if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			return err
		}
		return nil
	}
}

func run(listen, debugAddr, spec string, seed uint64, rate float64,
	slice time.Duration, block, ring, shards, histBytes int,
	warmup time.Duration, logger *slog.Logger) error {
	mgr, handler, err := setup(spec, seed, rate, slice, block, ring, shards,
		histBytes, warmup, logger)
	if err != nil {
		return err
	}
	// Close runs after serveUntilSignal's drain: in-flight scrapes finish
	// against a live manager, then the stations retire.
	defer mgr.Close()
	mgr.Start()

	var dsrv *http.Server
	if debugAddr != "" {
		dsrv = newHTTPServer(debugAddr, debugMux())
	}
	logger.Info("serving", "stations", mgr.Size(), "fleet", spec, "addr", listen,
		"version", version.Version)
	return serveUntilSignal(newHTTPServer(listen, handler), dsrv, logger)
}

// setupHead assembles a federation head and its HTTP handler — the head
// counterpart of setup, split out so tests can serve it through
// httptest. The first poll round runs synchronously (the head-mode
// warmup: the first scrape already sees every reachable leaf), and the
// caller owns Start/Stop of the poll loop.
func setupHead(leaves []federation.Leaf, interval, timeout time.Duration,
	logger *slog.Logger) (*federation.Head, http.Handler, error) {
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	head, err := federation.New(federation.Config{
		Leaves:   leaves,
		Interval: interval,
		Timeout:  timeout,
	})
	if err != nil {
		return nil, nil, err
	}
	head.PollOnce(context.Background())
	logger.Info("first poll round done", "leaves", head.Leaves(), "up", head.UpCount())
	return head, head.Handler(), nil
}

func runHead(listen, debugAddr string, leaves []federation.Leaf,
	interval, timeout time.Duration, logger *slog.Logger) error {
	head, handler, err := setupHead(leaves, interval, timeout, logger)
	if err != nil {
		return err
	}
	// Stop runs after serveUntilSignal's drain: in-flight scrapes finish
	// against live views, then the poll loop ends.
	defer head.Stop()
	head.Start()
	var dsrv *http.Server
	if debugAddr != "" {
		dsrv = newHTTPServer(debugAddr, debugMux())
	}
	logger.Info("serving federation head", "leaves", head.Leaves(), "up", head.UpCount(),
		"addr", listen, "version", version.Version)
	return serveUntilSignal(newHTTPServer(listen, handler), dsrv, logger)
}
