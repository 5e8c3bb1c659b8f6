// Package fleet runs many measurement stations concurrently — the
// multi-rig counterpart of internal/core's single-sensor host library.
//
// A Manager owns N named stations (assembled by internal/simsetup),
// steps them together in virtual-time quanta on per-shard workers, and
// ingests every station's sample stream in columnar batches through the
// internal/source layer — so heterogeneous backends coexist in one fleet:
// 20 kHz PowerSensor3 rigs next to 10 Hz NVML counters and 1 kHz RAPL
// meters. Samples are downsampled on the fly into fixed-capacity ring
// buffers (one per station), with block sizes derived from each source's
// native rate so ring points cover comparable time windows, and fanned
// out to subscribers; per-station health counters (stream resyncs,
// dropped fan-out points) make a running fleet observable. Fleets are
// dynamic: stations hot-add against a running manager and retire from it
// (Manager.Remove) without perturbing concurrent snapshots, scrapes or
// surviving stations — each station walks an explicit lifecycle
// (adopted → started → stopping → closed) whose retirement path drains
// the in-flight downsample block before subscriptions close. The ingest
// path is allocation-free in steady state: batches reuse caller-owned
// columns, block accumulators are fixed-size, and ring points write into
// a preallocated flat arena. internal/export serves the manager over
// HTTP.
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
// allocation-free: gap detection on per-step delivery accounting against
// the backend's declared rate, flatline detection on runs of
// bit-identical downsample blocks, and spike quarantine — an isolated
// sample deviating from both (agreeing) neighbours by many times the
// learned noise scale is replaced by their midpoint before it can reach
// the ring, the published watts or the energy accounting. The detectors
// drive Status.Health through four states, ordered by severity;
// downgrades apply immediately, upgrades hold for a recovery window so a
// flapping fault pins the station at its worst recent state:
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
//	    │                                  │ silence ≥ StaleAfter, or
//	    │ samples flowing again,           ▼ read error / backoff / parked
//	    └─────────────────────────────── stale
//	          held for recovery
//
// A source whose ReadInto errors or goes silent (and advertises
// source.Restarter) enters a bounded restart-with-backoff cycle: the
// watchdog stops reading it for a doubling backoff window, attempts a
// Restart, and — after a fixed budget of failed cycles — parks it
// permanently, so a dead backend costs its own station and nothing else.
// Every transition appends a typed event to the fleet's lifecycle ring
// (Manager.Events), and internal/export serves the health rank and the
// episode counters as the powersensor_station_* metric families.
package fleet
