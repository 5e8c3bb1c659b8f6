// Package repro is a from-scratch Go reproduction of "PowerSensor3: A Fast
// and Accurate Open Source Power Measurement Tool" (ISPASS 2025).
//
// The implementation lives under internal/: the host library in
// internal/core, the simulated hardware (sensors, ADC, firmware, USB,
// display) in their own packages, the device-under-test models (GPUs, SSD)
// beside them, and one experiment harness per paper table/figure in
// internal/experiments. See DESIGN.md for the full inventory and
// EXPERIMENTS.md for paper-versus-measured results.
//
// # The streaming source layer
//
// Every measurement backend — the 20 kHz PowerSensor3 host library and
// the paper's software-meter baselines (NVML, AMD SMI, the Jetson
// INA3221, RAPL) — is unified behind internal/source: a streaming source
// with metadata (backend name, native sample rate, channel labels) and
// columnar batch delivery, so the layers above never assume a fixed rate:
//
//	device.Device ── core.PowerSensor      gpu.GPU / vendorapi.CPU
//	(USB protocol)   (20 kHz sample hooks)  (vendor counters)
//	        │                                   │
//	source.Sensor ◄── ReadInto ──► source.Polled (native cadence)
//	        └────────────┬──────────────────────┘
//	             source.Source          ← internal/simsetup builds
//	        (Meta + ReadInto(d, *Batch))  named stations per kind
//	                     │
//	               fleet.Manager        ← block size & ring pacing
//	          (paced shard workers,       derived from Meta.RateHz
//	           downsampling rings)
//	                     │
//	              export.Exporter       ← backend kind + rate as
//	          (/metrics, /api/fleet)      labels and JSON fields
//
// Data flows in columns, not structs: ReadInto fills a caller-owned
// source.Batch — flat Time/Chans/Total arrays — with the samples a
// virtual-time slice produced, so a 20 kHz sensor hands the fleet
// hundreds of samples per call and the fleet folds whole columns with
// tight reduction loops instead of dispatching per sample.
//
// # The derived-source pipeline layer
//
// On top of the source layer, internal/pipeline derives *views*:
// composable Source wrappers that stack on any backend and stay on the
// zero-allocation columnar path —
//
//	any source.Source        powersensor3 @ 20 kHz, rapl @ 1 kHz, ...
//	      │
//	  Resample               rate conversion by energy-conserving bin
//	      │                  averaging; marker indices remapped so no
//	      │                  time-synced mark is lost
//	  Calibrate              uniform gain/offset on every channel,
//	      │                  applied in the batch fold (energy
//	      │                  re-integrated)
//	  RateLimit              max delivered rate for polled meters, plus
//	      │                  cumulative sampling-overhead accounting
//	   Smooth                EWMA over Total and every channel
//	      │
//	 fleet.Device            block size and ring pacing derived from the
//	      │                  stage-rewritten Meta.RateHz — no fleet changes
//	export.Exporter          derived backend ("powersensor3+resample"),
//	                         rewritten rate and overhead as scrape series
//
// Stages compose via pipeline.Chain and each rewrites the Meta it
// presents upward, so a raw 20 kHz station and its 1 kHz resampled,
// recalibrated view serve side by side from one rig; simsetup's fleet
// spec exposes the stack as a pipe syntax
// (gpu0lo=rtx4000ada@0|resample:1000|calib:0.98 — grammar on
// simsetup.ParseFleet). A RateLimit stage also accounts the measurement's
// own footprint — cumulative wall time spent sampling inside ReadInto —
// published per station as Status.OverheadSeconds and the
// powersensor_source_overhead_seconds series, the overhead concern
// RAPL-based comparisons quantify.
//
// # Fleet telemetry and the zero-allocation contract
//
// Beyond the single-rig tools, the repository runs whole fleets:
// internal/fleet drives many named stations (PCIe GPUs, SoC boards, SSDs,
// software meters — assembled by internal/simsetup), downsampling every
// source's stream into per-station ring buffers with health counters;
// internal/export serves a fleet over HTTP.
//
// One loop drives the fleet. Manager.Start launches a single pacer that
// advances the fleet by one virtual-time slice per quantum, paced
// against the wall clock, and Manager.StepAll — what tests, tools and
// perfbench call — steps the same quanta unpaced. Both go through one
// function, which steps small fleets serially and fans larger ones out
// to a persistent worker per shard; no station has a goroutine of its
// own. The trade-off is that a source whose ReadInto blocks stalls its
// whole shard, and with it the quantum, not only itself. No bundled
// source blocks: source.Sensor, source.Polled, the synthetic stations in
// internal/simsetup and every internal/pipeline stage compute each batch
// on virtual time.
//
// The loop steps only what is due. Every station has a due time: each
// quantum for a station whose sample period fits in one (every 20 kHz
// rig and 1 kHz stage), otherwise the earliest of its next sample (one
// period after the last delivered one, on the stage-rewritten
// Meta.RateHz), the end of a restart backoff and the health watchdog's
// deadlines. A station that is not due costs a comparison in its shard's
// dense due-time array — no lock, no source call, no write — and a shard
// with nothing due is not handed to its worker at all. When due, the
// station reads all the time it is owed in one ReadInto call, which is
// exact because every source gives the same samples however its reads
// are sliced (the source.Source contract). A skipped station's clock is
// carried forward by its shard's clock, so Status.Now stays exact.
// A 10 Hz meter is read ten times a second instead of two hundred.
//
// Fleets are dynamic while serving. A station can be adopted against a
// running manager (the pacer steps it from the next quantum) and retired
// at any time: the copy-on-write device-list swap is the commit point for
// concurrent snapshots and scrapes, after which the station is no longer
// stepped, the in-flight downsample block drains into the ring and the
// history series as one final point, and the source is released.
// Each station moves through an explicit lifecycle:
//
//	          Manager.Start / hot Add
//	adopted ───────────────────────────► started
//	   ▲                                    │
//	   │            Manager.Stop            │
//	   └────────────────────────────────────┤
//	                                        │ Manager.Remove
//	                                        ▼
//	                                    stopping ──drain──► closed
//	                                (no more steps,     (source
//	                                 final block         released)
//	                                 drains to ring
//	                                 and history)
//
// Churn is observable end to end: the manager counts adoptions and
// retirements (exported as powersensor_fleet_{adopted,retired}_total),
// every Status carries its station's lifecycle state, and scrapes racing
// a retirement stay well-formed — the exposition simply stops listing the
// retired station's series.
//
// The steady-state sample path allocates nothing, by contract: batches
// reuse their caller-owned columns, downsample blocks accumulate into
// fixed-size running sums, and ring points copy into pointer-free
// per-field columns preallocated at construction (regression-tested with
// testing.AllocsPerRun in internal/source and internal/fleet). The
// scrape path is decoupled from ingest: each station publishes its
// telemetry through per-field atomic cells refreshed at block and step
// boundaries, so Status, Manager.Snapshot and a /metrics scrape of a
// 256-station fleet never take a device ingest mutex — measurement cost
// stays off the measured system's critical path, the same property the
// paper claims for the sensor itself. perfbench (declared by
// BENCHMARK.json) measures the ingest and scrape numbers.
//
// # Fleet sharding
//
// At 10k stations a single device list and a single cached exposition
// body both become fleet-wide choke points: every Add/Remove rewrites
// one copy-on-write slice, and one busy station invalidates the whole
// body cache, so every scrape re-renders every station. The manager
// therefore shards. Station names hash (FNV-1a) onto a fixed shard
// count chosen at construction (fleet.Config.Shards, psd -shards,
// default 8, -shards 1 recovers the unsharded daemon), and each shard
// owns its slice of the fleet end to end:
//
//	shard = fnv1a(name) % Shards        deterministic — a re-added
//	   │                                 name returns to its shard
//	   ├─ device list   per-shard copy-on-write sorted slice; churn
//	   │                and snapshots contend only within the shard
//	   ├─ step worker   each quantum of Start's pacer or StepAll fans
//	   │                out to one persistent goroutine per shard with
//	   │                a station due; zero allocations per step
//	   └─ render cache  the exporter caches one exposition segment per
//	                    shard, keyed by Manager.ShardGen — a busy
//	                    station re-renders only its own shard's
//	                    segment; the other segments are memcpys
//
// Global views are assembled, not locked: Names and Snapshot k-way
// merge the per-shard sorted lists (NamesInto/SnapshotInto reuse
// caller buffers and stay allocation-flat at 10k stations), and a
// scrape concatenates per-shard segments family by family. Stale
// segments re-render serially in the scraping goroutine, each through
// the shard's export.Renderer — the same segment renderer a federation
// head keeps per leaf; Manager.Gen folds the per-shard generations so
// whole-body caching still works when nothing moved.
//
// # Self-observability
//
// The daemon measures itself with the same discipline it measures
// devices: internal/obs provides lock-free, zero-allocation latency
// histograms (power-of-two bucket bounds from 16 ns to ~2.1 s plus +Inf,
// each an atomic counter, so recording is two atomic adds and is safe on
// the ingest hot path) and a fixed-capacity structured event ring that
// overwrites oldest-first while counting every drop. The fleet records
// ingest-fold latency (sampled one step in thirty-two to keep the instrument
// inside the ingest path's own overhead budget), the pacer's lateness per
// fleet quantum on paced fleets, and adopt/start/retire/close lifecycle
// events with station name, kind and reason; each station's pipeline
// stages record their ReadInto latency into histograms the manager owns,
// so two fleets in one process count apart; the exporter times its own
// scrapes by serve path (full render versus cached fleet section).
//
// All of it exports as the powersensor_self_* families — ingest_fold /
// pacing_late / stage_read / scrape_seconds histograms,
// scrape_cache_{hits,misses}_total, events_total and
// events_dropped_total, ring_fill_ratio — plus powersensor_build_info,
// rendered as an always-fresh tail after the cacheable fleet section so
// the daemon's view of itself never goes stale behind its own body
// cache. The event log is also served raw at /api/events. Instrumented
// ingest stays zero-allocation and within a few percent of the
// uninstrumented path (both regression-tested).
//
// # Long-horizon history
//
// Rings hold seconds; production questions span hours ("energy consumed
// by gpu0 between t1 and t2" — the interval-read model of PMT). Behind
// each station's downsample ring, internal/history keeps a compressed
// per-station tier holding the summed-power points the ring would
// otherwise overwrite:
//
//	ingest (20 kHz)  ─── fold ───►  downsample ring
//	                                 │
//	                                 │ the same flush, same step: one
//	                                 │ batched AppendN per step, under
//	                                 ▼ the station's ingest mutex
//	                          history.Series
//	                    delta-of-delta timestamps +
//	                    XOR-compressed floats (Gorilla-style),
//	                    values quantised to ~1 mW dyadic steps
//	                    (>4x vs flat float64; lossless mode available),
//	                    sealed blocks carry precomputed energy sums
//	                                 │
//	          Device.EnergyWindow(from, to) / Manager.EnergyWindow
//	          trapezoidal integration, partial-interval clipping at
//	          both edges; sealed-block sums make interior blocks O(1)
//
// History is written at the step: the flush that pushes a step's
// finished points into the ring appends them to the series in one
// batched call, so the series is current whenever a step returns and no
// ring wraparound can lose a point on its way there. The append runs in
// the shard step workers, is timed inside the fold histogram, and
// allocates only when a block seals (the block's exact-size bits).
// Queries copy block summaries and the head block's bits under the
// series lock and decode after releasing it, so a long export never
// stalls a station's step. Eviction is by byte budget (fleet.Config.
// HistoryBytes, psd -history), oldest block first, with every drop
// counted. Windowed queries clip partial intervals at both window edges
// rather than snapping to point boundaries, and hold the zero-interval
// contract shared with pmt.Watts: an empty or inverted window is exactly
// 0 J, never NaN. Cross-checked against every backend's own cumulative
// energy integral to within 1% (internal/fleet history tests), and
// against pmt's interval-read model over twin sources — internal/pmt's
// vendor meters are SourceMeter adapters over the same internal/source
// stream the fleet ingests, so two Reads bracketing a workload and an
// EnergyWindow over the same span measure the same energy. Served by
// psd as GET /api/device/{name}/energy and a decimated long-range
// /api/device/{name}/history trace export; footprint, compression ratio
// and query latency export as powersensor_self_history_* families.
//
// # Multi-daemon federation
//
// One daemon scales to ~10k stations on one host; a fleet platform
// spans hosts. internal/federation adds the multi-daemon tier: leaf
// psd daemons serve their local fleets completely unchanged, and a
// head psd (psd -federate) aggregates them without owning a single
// station of its own:
//
//	scrapers ──▶ head psd ──┬─▶ leaf psd (fleet A, block-paced)
//	  heavy      (-federate)├─▶ leaf psd (fleet B)
//	  polling               └─▶ leaf psd (fleet C)
//
// The head polls every leaf's /api/fleet on a bounded worker pool —
// each poll with its own timeout, retry-with-backoff, and a per-leaf
// circuit breaker (closed → open after K consecutive failures →
// half-open single probe) — and merges the views into one namespaced
// exposition: every station series gains a leaf label, so duplicate
// station names across leaves stay distinct series, and per-device
// drill-downs proxy to the owning leaf as
// /api/device/{leaf}/{name}/energy and friends. Fan-in is
// health-gated: a dead or slow leaf degrades the aggregate instead of
// stalling it — its last-known stations serve marked stale (health
// gauge 3, stale:true in the merged JSON), powersensor_leaf_up drops
// to 0, and the breaker caps what the failure costs the poll loop to
// one rejected decision per round. /healthz answers 503 only when
// every leaf is dark, so an orchestrator restarts the head for a dead
// downstream, not a dead rack.
//
// The scrape economics reuse the sharded-render design one tier up:
// /api/fleet is versioned (a schema field the head checks, failing
// loudly on skew) and carries the leaf's generation fingerprint, which
// backs both the endpoint's ETag (quiet leaves answer 304 to
// If-None-Match — no body transfer) and the head's per-leaf cached
// exposition segment (no re-render until the generation moves). The
// body is compact JSON written and read without reflection: the leaf
// appends it with export.AppendFleetJSON into a pooled buffer, and the
// head scans it into fresh statuses, matching keys exactly and skipping
// unknown members, so a schema-1 leaf may add fields. A non-finite
// reading travels as null and reaches the head's exposition as NaN —
// one overflowed station no longer blanks its whole leaf. A head
// scrape over quiet leaves is segment memcpys plus a
// self-telemetry tail: measured ~350-400 ns/station at 9 allocs/op vs
// ~800 ns/station for the render the cache skips; perfbench's federated
// workload measures this path end to end. Per-leaf observability exports
// as powersensor_leaf_* families — up, stations, generation, breaker
// state, consecutive failures, breaker opens, polls, failures,
// renders, and a poll-latency histogram — with leaf up/down and
// breaker transitions logged to the head's /api/events ring. See
// examples/federation for two in-process leaves and a head driven
// through a kill-and-recover cycle.
//
// # The psd daemon
//
// Command psd is the served entry point:
//
//	psd [-listen :9120] [-fleet name=kindspec,...]
//	    [-seed 1] [-rate 1] [-slice 5ms] [-block 20] [-ring 4096] [-shards 8]
//	    [-history 1048576]
//	    [-warmup 2s] [-log-format text|json] [-debug-addr addr] [-version]
//
//	psd -federate leaf1=host1:9120,leaf2=host2:9120 [-federate-interval 1s]
//	    [-federate-timeout dur] [-listen :9120]
//
// The second form is the federation head described above: no local
// fleet, every station aggregated from the named leaves. Both forms
// trap SIGINT/SIGTERM and drain in-flight requests before exiting, and
// every listener (serving, head, -debug-addr) carries read-header,
// read and idle timeouts so a slow-loris peer cannot pin connections.
//
// Fleet specs mix PowerSensor3 rig kinds (rtx4000ada, w7700, jetson, ssd)
// with software-meter kinds (nvml, amdsmi, jetson-ina, rapl) freely, and
// stack derived pipeline views with the pipe syntax; the full kindspec
// grammar is documented on simsetup.ParseFleet. It
// serves GET /metrics (Prometheus text exposition), /api/fleet (JSON
// status of every station), /api/events (the lifecycle event log),
// /api/device/{name}/trace (recent downsampled
// trace as CSV or JSON), /api/device/{name}/energy (windowed energy
// over the history tier), /api/device/{name}/history (long-range
// decimated trace) and /healthz, plus the lifecycle admin endpoints
// POST /api/fleet/add (name= and kind= parameters) and
// POST /api/fleet/remove/{name} for hot-adding and retiring stations
// without restarting the daemon. A scrape yields per-station gauges
// and counters such as:
//
//	powersensor_source_info{device="gpu0",backend="powersensor3",kind="rtx4000ada"} 1
//	powersensor_source_rate_hz{device="gpu0"} 20000
//	powersensor_watts{device="gpu0",pair="2",channel="pcie8pin"} 55.88
//	powersensor_board_watts{device="gpu0"} 67.7
//	powersensor_joules_total{device="gpu0"} 154.9
//	powersensor_samples_total{device="gpu0"} 40000
//	powersensor_resyncs_total{device="gpu0"} 0
//
// See the cmd/psd package documentation for the full flag and endpoint
// reference, and examples/fleet for a minimal in-process mixed-backend
// fleet scrape.
package repro
