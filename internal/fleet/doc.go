// Package fleet runs many measurement stations concurrently — the
// multi-rig counterpart of internal/core's single-sensor host library.
//
// A Manager owns N named stations (assembled by internal/simsetup),
// steps them together in virtual-time quanta on per-shard workers, and
// ingests every station's sample stream in columnar batches through the
// internal/source layer — so heterogeneous backends coexist in one fleet:
// 20 kHz PowerSensor3 rigs next to 10 Hz NVML counters and 1 kHz RAPL
// meters.
//
// A quantum steps only the stations due within it. A station whose
// sample period is no longer than Config.Slice is due every quantum; a
// slower one is due at the earliest of its next sample (the last
// delivered sample plus one period of its stage-rewritten Meta.RateHz),
// the end of its restart backoff and its watchdog deadlines. A read that
// was due but delivered nothing leaves the station due every quantum
// until it delivers. Each shard keeps its stations' due times in a dense
// array beside their minimum: a station that is not due costs one
// comparison and no lock, source call or write, and a shard with nothing
// due is not handed to its worker. A due station reads all the quanta it
// skipped in one ReadInto call, which the source contract's split
// invariance makes exact. Its published clock is its source's clock as
// of its last read, carried forward by the shard's clock over the quanta
// skipped since, so Status.Now is exact after every quantum.
//
// Samples are downsampled on the fly into fixed-capacity ring buffers
// (one per station), with block sizes derived from each source's native
// rate so ring points cover comparable time windows, and written
// at the same step into a compressed long-horizon history series that
// answers windowed energy queries; per-station health counters (stream
// resyncs, watchdog episodes) make a running fleet observable. Fleets are
// dynamic: stations hot-add against a running manager and retire from it
// (Manager.Remove) without perturbing concurrent snapshots, scrapes or
// surviving stations — each station walks an explicit lifecycle
// (adopted → started → stopping → closed) whose retirement path drains
// the in-flight downsample block into the ring and history before the
// source is released. The ingest path is allocation-free in steady
// state: batches reuse caller-owned columns, block accumulators are
// fixed-size, ring points write into preallocated pointer-free columns
// (about 20 B plus 8 B per channel per point, 176 KiB per 3-channel
// station at the default capacity of 4096, none of it scanned by the
// garbage collector), and history allocates only when it seals a block.
// internal/export serves the manager over HTTP.
//
// # Fault injection & station health
//
// Real fleets fail one station at a time: a USB link drops samples, a
// stuck sensor register serves the same reading at full rate, a flaky
// supply glitches single samples, a meter's clock drifts. The
// internal/pipeline fault stages (dropout, stuck, spike, skew, jitter —
// see simsetup.ParseFleet for the kindspec grammar) reproduce those
// failure modes deterministically from the station seed, and the fleet's
// per-station health watchdog detects them from the ingest side, so
// failure-handling behaviour is testable end to end without hardware.
//
// The watchdog runs three detectors on the ingest hot path, all
// allocation-free: gap detection on per-read delivery accounting against
// the backend's declared rate, flatline detection on runs of
// bit-identical downsample blocks, and spike quarantine — an isolated
// sample deviating from both (agreeing) neighbours by many times the
// learned noise scale is replaced by their midpoint before it can reach
// the ring, the published watts or the energy accounting. The detectors
// drive Status.Health through four states, ordered by severity;
// downgrades apply immediately, upgrades hold for a recovery window so a
// flapping fault pins the station at its worst recent state. Every
// watchdog window — staleness, the spike cool-down, the upgrade hold,
// the restart backoff, the gap detector's delivery windows — is virtual
// time on the shard clock, and each deadline is a due time, so a 10 Hz
// meter visited only when due flips at the same quantum as it would if
// visited every quantum:
//
//	          gap episode opens, or
//	          spike quarantined recently
//	healthy ──────────────────────────▶ degraded
//	    ▲  ◀──────────────────────────     │
//	    │     clean for recover window     │
//	    │                                  │ flatRunFor identical
//	    │ flat run broken,                 ▼ blocks
//	    ├───────────────────────────── flatlined
//	    │     held for recovery
//	    │                                  │ silence ≥ 250 ms, or
//	    │ samples flowing again,           ▼ read error / backoff / parked
//	    └─────────────────────────────── stale
//	          held for recovery
//
// A source whose ReadInto errors or goes silent (and advertises
// source.Restarter) enters a bounded restart-with-backoff cycle: the
// watchdog stops reading it for a doubling backoff window (20 ms to
// 1.28 s of virtual time, its clock frozen), attempts a Restart at the
// window's end, and — after a fixed budget of failed cycles — parks it
// permanently, never due again, so a dead backend costs its own station
// and nothing else.
// Every transition appends a typed event to the fleet's lifecycle ring
// (Manager.Events), and internal/export serves the health rank and the
// episode counters as the powersensor_station_* metric families.
package fleet
