// Per-station health watchdog: the ingest-side fault detection that lets
// one faulted station degrade its own series while the rest of the fleet
// stays well-formed. Three detectors run on the hot path — gap detection
// on per-read delivery accounting, flatline detection on runs of
// bit-identical downsample blocks, spike quarantine on a robust
// successive-difference outlier gate — and drive a published
// Status.Health with hysteresis, plus a bounded restart-with-backoff path
// for sources whose ReadInto errors or goes silent. Everything here is
// plain arithmetic on fixed-size state owned by the ingest goroutine
// (under Device.mu): no allocations, no locks beyond the one the step
// already holds.
//
// Every window is virtual time on the station's shard clock, not a count
// of steps, because a slow meter is visited only when something is due
// (see Device.step): a 10 Hz station and a 20 kHz one go stale, cool down
// after a spike, hold an upgrade and back off for the same virtual time.
// The deadlines that end those windows are due times themselves, so a
// skipped station is visited when one passes.
//
// Health states and transitions (worse is higher; upgrades toward healthy
// hold for healthRecover of virtual time before applying, so a flapping
// fault cannot flap the published state):
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
//	    │                                  │ silence ≥ staleAfter, or
//	    │ samples flowing again,           ▼ read error / backoff / parked
//	    └─────────────────────────────── stale
//	          held for recovery

package fleet

import (
	"time"

	"repro/internal/obs"
	"repro/internal/source"
)

// Health states, as published on Status.Health and counted by
// Manager.HealthCounts. The internal rank (see HealthLevel) orders them
// by severity: healthy < degraded < flatlined < stale.
const (
	// HealthHealthy: delivery, timing and values all look like the
	// backend's declared behaviour.
	HealthHealthy = "healthy"
	// HealthDegraded: the station is serving, but a gap episode is open
	// or spikes were quarantined recently — treat its series with care.
	HealthDegraded = "degraded"
	// HealthFlatlined: samples arrive at rate but carry a run of
	// bit-identical totals far longer than the backend's noise floor
	// allows — a stuck register serving fake liveness.
	HealthFlatlined = "flatlined"
	// HealthStale: no samples at all for staleAfter (250 ms), the source's
	// reads are erroring, or the watchdog parked it — the series' newest
	// point is history, not telemetry.
	HealthStale = "stale"
)

// Internal health ranks: comparison decides transition direction
// (downgrades apply immediately, upgrades hold), so the order IS the
// severity order.
const (
	healthHealthy int32 = iota
	healthDegraded
	healthFlatlined
	healthStale
)

// healthName maps a rank to its Status.Health string.
func healthName(h int32) string {
	switch h {
	case healthHealthy:
		return HealthHealthy
	case healthDegraded:
		return HealthDegraded
	case healthFlatlined:
		return HealthFlatlined
	case healthStale:
		return HealthStale
	}
	return "unknown"
}

// HealthLevel maps a Status.Health string to its numeric severity rank —
// 0 healthy, 1 degraded, 2 flatlined, 3 stale — the value the exporter
// serves as powersensor_station_health. Unknown strings rank as stale:
// a consumer that cannot parse a station's health should not assume the
// station is fine.
func HealthLevel(health string) int {
	switch health {
	case HealthHealthy:
		return int(healthHealthy)
	case HealthDegraded:
		return int(healthDegraded)
	case HealthFlatlined:
		return int(healthFlatlined)
	}
	return int(healthStale)
}

// AggregateHealth tallies published health states over a status
// snapshot — the read-only aggregated-station view a consumer holding a
// fleet only as []Status (a federation head holding leaf views, a
// dashboard holding a decoded /api/fleet body) applies without owning a
// Manager. Semantics match Manager.HealthCounts exactly: stations is the
// snapshot size, degraded counts every station not currently healthy,
// and down counts the subset that is stale or flatlined — serving
// nothing, or serving fake liveness.
func AggregateHealth(devs []Status) (stations, degraded, down int) {
	for i := range devs {
		stations++
		lvl := HealthLevel(devs[i].Health)
		if lvl != int(healthHealthy) {
			degraded++
		}
		if lvl >= int(healthFlatlined) {
			down++
		}
	}
	return stations, degraded, down
}

// Watchdog tuning. Every window is virtual time, so detection latency
// scales with the fleet's configured pacing, not the host's, and not with
// how often a station is visited.
const (
	// gapCleanWins is how many consecutive clean delivery windows close a
	// gap episode — the gap detector's recovery hysteresis.
	gapCleanWins = 2
	// spikeRecover is how long after the last quarantined sample the
	// station stays degraded — the spike gate's hysteresis.
	spikeRecover = 80 * time.Millisecond
	// spikeArm is how many samples prime the noise-scale EWMA before the
	// spike gate starts quarantining; until the scale is learned, an
	// honest step change would look like a glitch.
	spikeArm = 256
	// spikeAlpha is the EWMA weight of the successive-difference noise
	// scale: 1/64 tracks a drifting noise floor in a few ms at 20 kHz
	// while one glitch barely moves it.
	spikeAlpha = 1.0 / 64
	// spikeGateK is the quarantine threshold in noise-scale multiples.
	spikeGateK = 8.0
	// healthRecover is how long an improvement must hold before the
	// published health upgrades.
	healthRecover = 40 * time.Millisecond
	// flatMinSamples is the fewest bit-identical consecutive samples a
	// flatline episode needs, whatever flatlineWindow says. A coarse
	// quantised meter (RAPL at 100 Hz reads in 0.01 W steps) legitimately
	// plateaus for tens of samples during steady workload phases; only a
	// run long enough to be statistically impossible for live quantised
	// readings is a stuck register. At 20 kHz this floor (13 block-20
	// points) is far below the flatlineWindow, so fast rigs keep their
	// time-based detection latency.
	flatMinSamples = 256
	// staleAfter is how long (virtual time) a station may deliver no
	// samples at all before the watchdog declares it stale; twice this
	// silence also triggers the restart-with-backoff path on restartable
	// sources. 250 ms is generous against the slowest bundled meter
	// (10 Hz NVML) yet fast against a wedged 20 kHz sensor.
	staleAfter = 250 * time.Millisecond
	// flatlineWindow is how much virtual time of bit-identical totals —
	// at the station's native rate — flags a flatline: 50 ms is a
	// thousand identical 20 kHz conversions, far beyond any real noise
	// floor, while coarse slow meters get a 3-reading minimum instead.
	flatlineWindow = 50 * time.Millisecond
	// restartBudget bounds the restart-with-backoff path: after this many
	// fault cycles without a clean delivering read, the source is parked.
	restartBudget = 6
	// backoffInit / backoffMax bound the skip-the-source windows between
	// restart attempts: 20 ms doubling to 1.28 s.
	backoffInit = 20 * time.Millisecond
	backoffMax  = 1280 * time.Millisecond
)

// watchdog is one station's health-detection state, owned by the ingest
// goroutine under Device.mu. All fixed-size, so the hot path stays
// allocation-free.
type watchdog struct {
	gapAfter   float64       // gap-episode debt threshold, in samples
	winDur     time.Duration // delivery-accounting window width
	flatRunFor int           // identical blocks before a flatline episode

	// Gap detection: running expected-minus-delivered debt plus windowed
	// delivery accounting for recovery. primed gates both until the first
	// delivered sample: a backend filling its transfer pipe at adoption
	// (USB buffering, poll phase) has not gapped, it has not started.
	primed    bool
	gapDebt   float64
	gapOpen   bool
	winExpect float64
	winGot    float64
	winEnd    time.Duration // shard time the open window ends
	cleanWins int
	lastGot   time.Duration // shard time of the last delivering read (or adoption)

	// Flatline detection: run of bit-identical min==max==value blocks.
	flatVal  float64
	flatRun  int
	flatOpen bool

	// Spike quarantine: successive-difference noise scale and the despike
	// neighbour state carried across batch boundaries.
	spikePrev  float64
	spikeDev   float64
	spikeN     int
	spikeUntil time.Duration // shard time the spike hysteresis ends

	// Published health with upgrade hysteresis: an improvement pending
	// since the read that first saw it applies at holdUntil.
	health    int32
	holding   bool
	holdUntil time.Duration

	// Restart-with-backoff: while backoff is set the source is not read
	// and is restarted at restartAt.
	rst          source.Restarter
	wasFaulted   bool
	backoff      bool
	restartAt    time.Duration
	nextBackoff  time.Duration
	restartsLeft int
	parked       bool

	// Episode counters, mirrored into pub by publish.
	gaps      uint64
	flatlines uint64
	spikesQ   uint64
	restarts  uint64
}

// initWatchdog sizes the detectors from the station's native rate and the
// fleet config, with every window starting at the adoption time on the
// shard clock. Called from newDevice.
func (d *Device) initWatchdog(cfg Config) {
	w := &d.wd
	w.lastGot = d.readAt
	// One whole missing ring point is noise (resample lag, poll phase);
	// two plus margin is a gap.
	w.gapAfter = float64(2*d.block + 2)
	// The delivery-accounting window must hold a few slices of a fast
	// source and at least ~2.5 sample periods of a slow meter, so one
	// poll landing either side of a boundary cannot dirty a window. A
	// slow meter's window is a whole number of periods, so on a meter
	// that delivers on time its window ends fall on its sample reads.
	w.winDur = 4 * cfg.Slice
	if d.period > 0 {
		n := max((w.winDur+d.period-1)/d.period, 3)
		w.winDur = n * d.period
	}
	// Flatline threshold: identical blocks spanning flatlineWindow of
	// virtual time at the native rate, never fewer than 3 — two equal
	// polls of a coarse meter are coincidence, not a fault — and never
	// fewer than flatMinSamples samples, so a slow quantised meter's
	// legitimate plateaus stay below the bar.
	blockDur := time.Duration(float64(d.block) / d.meta.RateHz * float64(time.Second))
	w.flatRunFor = 3
	if blockDur > 0 {
		if n := int(flatlineWindow / blockDur); n > w.flatRunFor {
			w.flatRunFor = n
		}
	}
	if d.block > 0 {
		if n := (flatMinSamples + d.block - 1) / d.block; n > w.flatRunFor {
			w.flatRunFor = n
		}
	}
	w.nextBackoff = backoffInit
	w.restartsLeft = restartBudget
	w.rst, _ = d.src.(source.Restarter)
}

// healthEvent appends a watchdog event to the fleet's lifecycle ring.
func (d *Device) healthEvent(typ, reason string) {
	d.events.Append(typ, d.name, d.kind, reason)
}

// despike is the spike quarantine gate, run over a batch's totals before
// the fold: an isolated sample deviating from both neighbours by more
// than spikeGateK times the learned successive-difference noise scale —
// while the neighbours agree with each other — is a glitch, not a
// workload step. The glitch is replaced in place by the neighbour
// midpoint (rows rescaled to match) so the ring, the published watts and
// the energy-weighted block means never integrate it. Workload steps
// survive: after a real edge the next sample stays at the new level, so
// the isolation test fails. Limitations, by construction: back-to-back
// glitches mask each other, and a batch's last sample has no right
// neighbour yet, so a glitch there passes — the gate is a robust filter,
// not a parser. end is the shard time of the read that delivered b.
func (d *Device) despike(b *source.Batch, end time.Duration) {
	n := b.Len()
	if n == 0 {
		return
	}
	w := &d.wd
	totals := b.Total
	stride := d.chans
	// The gate state lives in locals for the loop and is stored back once
	// per read, so the per-sample updates stay in registers.
	prev, dev, seen := w.spikePrev, w.spikeDev, w.spikeN
	if seen == 0 {
		prev = totals[0]
	}
	quarantined := 0
	for i := 0; i < n; i++ {
		x := totals[i]
		diff := x - prev
		if diff < 0 {
			diff = -diff
		}
		if seen >= spikeArm {
			if thr := spikeGateK * dev; diff > thr && i+1 < n {
				next := totals[i+1]
				dNext := x - next
				if dNext < 0 {
					dNext = -dNext
				}
				dBridge := next - prev
				if dBridge < 0 {
					dBridge = -dBridge
				}
				if dNext > thr && dBridge <= thr {
					fix := (prev + next) / 2
					if x != 0 {
						scale := fix / x
						row := b.Chans[i*stride : (i+1)*stride]
						for m := range row {
							row[m] *= scale
						}
					}
					totals[i] = fix
					quarantined++
					prev = fix
					continue // the glitch must not feed the noise scale
				}
			}
		}
		dev += spikeAlpha * (diff - dev)
		seen++
		prev = x
	}
	w.spikePrev, w.spikeDev, w.spikeN = prev, dev, seen
	if quarantined > 0 {
		w.spikesQ += uint64(quarantined)
		w.spikeUntil = end + spikeRecover
	}
}

// observeFlat folds one completed downsample block into the flatline
// detector: a block whose min, max and previous blocks' value are all
// bit-identical extends the flat run. Called from emit with the block
// accumulators still live, so detection costs O(1) per block — the
// per-sample min/max the fold already computes does the heavy lifting.
func (d *Device) observeFlat() {
	w := &d.wd
	if d.accMin == d.accMax {
		if w.flatRun > 0 && d.accMin == w.flatVal {
			w.flatRun++
		} else {
			w.flatVal = d.accMin
			w.flatRun = 1
		}
	} else {
		w.flatRun = 0
	}
	if w.flatRun >= w.flatRunFor {
		if !w.flatOpen {
			w.flatOpen = true
			w.flatlines++
		}
	} else {
		w.flatOpen = false
	}
}

// observeRead folds one read's delivery accounting into the gap detector:
// running debt against the rate the backend declares over the dt the read
// covered, plus windowed delivered-vs-expected comparison for episode
// recovery — the windowing is what lets a 10 Hz meter (most quanta
// legitimately empty) and a 20 kHz sensor share one detector. Windows
// lie on a fixed grid from the first delivering read, and each window end
// is a due time (see nextDue), so it closes at the same quantum whether
// or not the station was skipped before it. Called from advance after
// ingest, with end the read's shard time.
func (d *Device) observeRead(dt time.Duration, got int, end time.Duration) {
	w := &d.wd
	if got > 0 {
		w.lastGot = end
		if !w.primed {
			w.primed = true
			w.winEnd = end + w.winDur
		}
	}
	if !w.primed {
		// Pre-first-sample: staleness (lastGot) covers a source that
		// never starts; debt accounting would misread pipe-fill as a gap.
		return
	}
	expect := d.meta.RateHz * dt.Seconds()
	w.gapDebt += expect - float64(got)
	if w.gapDebt < 0 {
		w.gapDebt = 0
	}
	if !w.gapOpen && w.gapDebt >= w.gapAfter {
		w.gapOpen = true
		w.gaps++
		w.cleanWins = 0
	}
	w.winExpect += expect
	w.winGot += float64(got)
	if end >= w.winEnd {
		// Clean = delivered what the rate promised, to within 1.5 samples
		// (resample bin lag, poll phase) and 2% (rounding at scale).
		if w.winGot >= w.winExpect-1.5-0.02*w.winExpect {
			w.cleanWins++
			w.gapDebt = 0
			if w.gapOpen && w.cleanWins >= gapCleanWins {
				w.gapOpen = false
			}
		} else {
			w.cleanWins = 0
		}
		w.winExpect, w.winGot = 0, 0
		for w.winEnd <= end {
			w.winEnd += w.winDur
		}
	}
}

// refreshHealth recomputes the published health at shard time end from
// the open detector episodes. Downgrades apply immediately — detection
// latency is the detectors' own windows — while upgrades hold for
// healthRecover, so a fault flapping faster than that pins the station at
// its worst recent state instead of strobing the fleet view. Called from
// advance with d.mu held; transitions publish atomically and append an
// obs event.
func (d *Device) refreshHealth(end time.Duration) {
	w := &d.wd
	var want int32
	switch {
	case w.parked || w.backoff || end-w.lastGot >= staleAfter:
		want = healthStale
	case w.flatOpen:
		want = healthFlatlined
	case w.gapOpen || end < w.spikeUntil:
		want = healthDegraded
	default:
		want = healthHealthy
	}
	if want == w.health {
		w.holding = false
		return
	}
	if want < w.health { // improvement: hold before upgrading
		if !w.holding {
			w.holding = true
			w.holdUntil = end + healthRecover
		}
		if end < w.holdUntil {
			return
		}
	}
	w.holding = false
	w.health = want
	d.pub.health.Store(want)
	d.pub.wdGen.Add(1)
	d.healthEvent(obs.EventHealth, healthName(want))
}

// sourceFault begins (or deepens) a restart-with-backoff cycle at shard
// time end: the source is not read for the backoff window, whose end is
// the station's next due time, when advance attempts a Restart. Each
// cycle doubles the next window; when the budget runs out the source is
// parked — read never again, permanently stale — so a dead backend costs
// its station, not a retry loop. Called on a ReadInto error and on
// sustained silence (stall) when the source is restartable.
func (d *Device) sourceFault(end time.Duration) {
	w := &d.wd
	w.wasFaulted = true
	if w.restartsLeft == 0 {
		w.parked = true
		d.healthEvent(obs.EventRestart, "parked")
		return
	}
	w.restartsLeft--
	w.backoff = true
	w.restartAt = end + w.nextBackoff
	if w.nextBackoff < backoffMax {
		w.nextBackoff *= 2
	}
	d.healthEvent(obs.EventRestart, "backoff")
}

// restart ends a backoff window at shard time end: one recovery attempt,
// after which the next quantum reads again. The time the window skipped is
// not owed — the source's clock froze through it, as a wedged backend's
// would, so its offset from the shard clock is taken afresh. A failing
// Restart deepens the cycle directly.
func (d *Device) restart(end time.Duration) {
	w := &d.wd
	w.backoff = false
	w.restarts++
	d.healthEvent(obs.EventRestart, "restart")
	d.readAt, d.sampleDue = end, end
	if w.rst != nil {
		if err := w.rst.Restart(); err != nil {
			d.sourceFault(end)
		}
	}
	d.off = d.src.Now() - end
}

// nextDue returns the shard time at which the station must next be
// visited, after a visit at end: every quantum for a station whose sample
// period fits in one; otherwise the earliest of its next sample, the end
// of a restart backoff, and the watchdog deadlines still ahead — stale,
// stall, spike cool-down, a pending health upgrade, the gap detector's
// window end and the time its debt would open a gap if nothing arrived.
// Every visit reads the time owed, so each deadline is evaluated at the
// quantum it would be under every-quantum stepping. A sample that was
// due but has not arrived keeps the station due every quantum until it
// does, so a late sample costs no freshness. A parked station is never
// due again.
func (d *Device) nextDue(end time.Duration) time.Duration {
	w := &d.wd
	switch {
	case w.parked:
		return never
	case w.backoff:
		return w.restartAt
	case d.period == 0:
		return end
	}
	due := d.sampleDue
	ahead := func(t time.Duration) {
		if t > end && t < due {
			due = t
		}
	}
	ahead(w.lastGot + staleAfter)
	if w.rst != nil {
		ahead(w.lastGot + 2*staleAfter)
	}
	ahead(w.spikeUntil)
	if w.holding {
		ahead(w.holdUntil)
	}
	if w.primed {
		ahead(w.winEnd)
		if !w.gapOpen {
			ahead(end + time.Duration((w.gapAfter-w.gapDebt)/d.meta.RateHz*float64(time.Second)) + 1)
		}
	}
	return due
}
