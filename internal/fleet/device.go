package fleet

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/history"
	"repro/internal/obs"
	"repro/internal/source"
	"repro/internal/trace"
)

// devState is a station's lifecycle state. A device moves strictly
// forward through retirement (stopping, closed are terminal); adopted and
// started alternate with the manager's Start/Stop cycles.
type devState int32

const (
	// devAdopted: owned by a manager that is not running.
	devAdopted devState = iota
	// devStarted: the manager's pacer is advancing it.
	devStarted
	// devStopping: retirement begun; the last partial block is draining.
	devStopping
	// devClosed: drained; source released.
	devClosed
)

func (s devState) String() string {
	switch s {
	case devAdopted:
		return "adopted"
	case devStarted:
		return "started"
	case devStopping:
		return "stopping"
	case devClosed:
		return "closed"
	}
	return "unknown"
}

// Status is a point-in-time health and measurement snapshot of one station.
type Status struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
	// Backend names the measurement backend serving the station —
	// "powersensor3" for instrumented rigs, "nvml"/"amdsmi"/"ina3221"/
	// "rapl" for the software meters.
	Backend string `json:"backend"`
	// RateHz is the backend's native sample rate.
	RateHz float64 `json:"rate_hz"`
	// Channels labels the station's measurement channels (sensor pairs
	// on a PowerSensor3 rig, the single counter of a software meter).
	// The slice is the caller's own copy — mutating it cannot affect the
	// device or other snapshots.
	Channels []string `json:"channels"`
	// Pairs is the number of measurement channels.
	Pairs int `json:"pairs"`
	// Now is the station's virtual time: exact after every fleet quantum,
	// skipped or not, and frozen while its source is not being read
	// (restart backoff, parked, closed). Between the reads of a skipped
	// station it advances with the fleet's clock, except that a source
	// whose own clock runs at another rate (the skew fault stage) holds
	// its last read's time until its next read: exact at its reads, and
	// never decreasing.
	Now time.Duration `json:"now"`
	// Watts is the summed board power of the latest downsampled ring
	// point — a block average rather than one raw sample, since a
	// single sample is dominated by quantisation noise on lightly loaded
	// rails (the Table II effect). PairWatts splits it per channel.
	Watts     float64   `json:"watts"`
	PairWatts []float64 `json:"pair_watts"`
	// Joules is the cumulative energy over all channels since the fleet
	// adopted the station, as integrated by the backend itself, read with
	// the station's latest samples: a station skipped between samples
	// publishes the counter as of its last read.
	Joules float64 `json:"joules"`
	// State is the station's lifecycle state: "adopted" (owned, not
	// driven), "started" (the manager's pacer is advancing it), "stopping"
	// (retirement drain in progress) or "closed" (retired, source
	// released).
	State string `json:"state"`
	// Samples counts native-rate sample sets ingested.
	Samples uint64 `json:"samples"`
	// Marks counts the time-synced user markers ingested — samples the
	// PowerSensor3 firmware flagged in response to a host marker command.
	Marks uint64 `json:"marks"`
	// Resyncs counts stream bytes skipped to regain protocol alignment —
	// nonzero values indicate a corrupted or lossy link. Always zero for
	// software meters.
	Resyncs int `json:"resyncs"`
	// OverheadSeconds is the cumulative wall time the station's source
	// spent sampling inside ReadInto — the measurement's own footprint on
	// the measured system. Zero for sources without overhead accounting
	// (see source.Overheader); pipeline.RateLimit stages account it.
	OverheadSeconds float64 `json:"overhead_seconds"`
	// RingLen and RingTotal describe the station's ring buffer: points
	// currently held and points ever produced.
	RingLen   int    `json:"ring_len"`
	RingTotal uint64 `json:"ring_total"`
	// Health is the watchdog's verdict on the station's series:
	// "healthy", "degraded" (open gap episode or recent spike
	// quarantine), "flatlined" (a run of bit-identical totals far beyond
	// the backend's noise floor) or "stale" (no samples for 250 ms of
	// virtual time, erroring reads, or a parked source). See
	// internal/fleet/health.go for the state machine and hysteresis.
	Health string `json:"health"`
	// Gaps and Flatlines count detected fault episodes (not samples):
	// each opens once and must recover before it can count again.
	Gaps      uint64 `json:"gaps"`
	Flatlines uint64 `json:"flatlines"`
	// SpikesQuarantined counts samples the robust outlier gate replaced
	// by their neighbour midpoint before they reached the ring.
	SpikesQuarantined uint64 `json:"spikes_quarantined"`
	// Restarts counts watchdog recovery attempts on the source after read
	// errors or sustained silence.
	Restarts uint64 `json:"restarts"`
}

// pub is the device's published telemetry: one atomic cell per Status
// field that changes while the fleet runs. The ingest goroutine refreshes
// the cells at block boundaries and at the end of every read, and readers
// assemble a Status from plain atomic loads — so Status()/Snapshot()
// never touch the ingest mutex, and a stalled scraper can never stall a
// 20 kHz station. A station skipped for quanta is not written at all: its
// clock is carried forward by its shard's (see Device.now).
//
// Per-field atomics (rather than an atomically swapped snapshot struct)
// keep the refresh allocation-free: republishing a fresh snapshot object
// per block would put one heap allocation on the steady-state ingest
// path. The price is that a reader may observe fields from two adjacent
// blocks; each field is itself always a complete, valid value, which is
// all a telemetry scrape needs.
type pub struct {
	state   atomic.Int32 // devState
	samples atomic.Uint64
	marks   atomic.Uint64
	// The station's clock (see Device.now): its source's clock at the
	// last read, and that clock's offset from the shard clock, or
	// frozenOff while the source is not read (backoff, parked, closed)
	// and until the next read once the offset has moved.
	nowNanos  atomic.Int64
	nowOff    atomic.Int64
	joules    atomic.Uint64 // math.Float64bits
	overhead  atomic.Int64  // cumulative sampling overhead, nanoseconds
	resyncs   atomic.Int64
	watts     atomic.Uint64 // math.Float64bits
	pair      [source.MaxChannels]atomic.Uint64
	ringLen   atomic.Int64
	ringTotal atomic.Uint64
	health    atomic.Int32 // healthHealthy..healthStale rank
	gaps      atomic.Uint64
	flatlines atomic.Uint64
	spikesQ   atomic.Uint64
	restarts  atomic.Uint64
	// wdGen counts watchdog publications: bumped whenever health or any
	// episode counter changes. ShardGen folds it next to ringTotal so a
	// health transition invalidates the station's cached exposition
	// segment even when the station has stopped producing blocks — the
	// stale and parked states are exactly the frozen-ringTotal case.
	wdGen atomic.Uint64
}

// Device is one managed station: a streaming measurement source plus the
// fleet's ingest state. All source access is serialised by mu, held by
// whoever steps the device (pacer, shard worker or StepAll caller).
// Snapshots never take mu — they read the atomically published telemetry
// cells instead — so scraping a fleet of hundreds of stations cannot
// block any station's ingest.
type Device struct {
	name string
	kind string
	meta source.Meta // Channels is the device's own immutable copy
	ring *Ring
	clk  *atomic.Int64 // the home shard's clock: virtual time stepped through
	// due is the shard time the station is next due (see nextDue);
	// written and read only by its home shard under the shard's mu.
	due time.Duration

	mu sync.Mutex
	// Due-time stepping: the shard time the source has been read up to,
	// the sample period (zero when the station is due every quantum) and
	// the shard time its next sample is due.
	readAt    time.Duration
	period    time.Duration
	sampleDue time.Duration
	// off is the source clock's offset from the shard clock as of the
	// last read, adoption or restart. A read that finds it moved (a skew
	// stage) freezes the published clock until the next read.
	off time.Duration

	src     source.Source
	ov      source.Overheader // src's overhead accounting, nil without one
	batch   source.Batch      // reused columnar buffer ReadInto fills each step
	block   int               // samples per ring point, derived from the native rate
	chans   int
	baseJ   float64 // cumulative joules at adoption, subtracted from Status
	samples uint64
	marks   uint64
	closed  bool

	// In-flight downsample block: running sum/min/max of the summed power
	// (min/max feed only the flatline detector, never the ring) plus
	// per-channel running sums — fixed-size accumulators, so folding a
	// block performs no appends and no allocations.
	accN                   int
	accMarks               int
	accSum, accMin, accMax float64
	pairSums               [source.MaxChannels]float64
	scratch                [source.MaxChannels]float64 // latest block's per-channel means
	accMean                float64                     // latest block's summed-power mean
	emitted                bool                        // block completed since last publish
	ringTotal              uint64

	// Completed-point staging: blocks finished within one step collect
	// here and reach the ring in a single PushN, one lock round-trip per
	// step instead of one per block.
	pendN     int
	pendTime  [pendCap]time.Duration
	pendTotal [pendCap]float64
	pendMarks [pendCap]int
	pendWatts [pendCap * source.MaxChannels]float64

	// Fold-latency instrumentation: the manager's shared histogram plus
	// this device's step counter selecting which steps get timed (see
	// foldSampleEvery). Contention on the shared histogram is negligible —
	// one atomic add per sampled step, not per sample.
	foldHist *obs.Hist
	stepN    uint64

	// Health watchdog state (see health.go) and the fleet event ring its
	// transitions append to.
	wd     watchdog
	events *obs.EventRing

	// Long-horizon history tier (see history.go in this package): the
	// compressed series every flush appends to. The query latency
	// histogram is the manager's shared one.
	hist      *history.Series
	histQuery *obs.Hist

	pub pub
}

// newDevice adopts src. cfg.pointPeriod is the target time width of one
// ring point; the per-source block size is derived from it and the
// source's native rate, so a 20 kHz sensor averages hundreds of samples
// per point while a 10 Hz software meter contributes every sample it has.
// The batch columns are pre-sized for the samples one slice of virtual
// time produces at the source's native rate. clk is the home shard's
// clock, read once for the adoption time; foldHist and histQuery are the
// manager's fold and history-query histograms; events receives the
// health watchdog's transition events.
func newDevice(name, kind string, src source.Source, cfg Config, clk *atomic.Int64, foldHist, histQuery *obs.Hist, events *obs.EventRing) *Device {
	meta := src.Meta()
	// The device keeps its own copy of the channel labels: neither the
	// source nor any Status consumer can mutate it from under the fleet.
	meta.Channels = append([]string(nil), meta.Channels...)
	block := int(math.Round(meta.RateHz * cfg.pointPeriod().Seconds()))
	if block < 1 {
		block = 1
	}
	d := &Device{
		name:      name,
		kind:      kind,
		meta:      meta,
		ring:      NewRing(cfg.RingCap, len(meta.Channels)),
		clk:       clk,
		src:       src,
		block:     block,
		chans:     len(meta.Channels),
		baseJ:     src.Joules(),
		foldHist:  foldHist,
		events:    events,
		histQuery: histQuery,
	}
	// A station is adopted at its shard's current time and is due every
	// quantum until its first sample fixes its phase.
	d.readAt = time.Duration(clk.Load())
	d.sampleDue = d.readAt
	if meta.RateHz > 0 {
		if p := time.Duration(float64(time.Second) / meta.RateHz); p > cfg.Slice {
			d.period = p
		}
	}
	d.ov, _ = src.(source.Overheader)
	// A non-positive budget takes the history default, never the
	// tier's unbounded mode.
	d.hist = history.New(history.Config{MaxBytes: max(cfg.HistoryBytes, 0)})
	d.initWatchdog(cfg)
	d.due = d.nextDue(d.readAt)
	// Expected samples per step, padded: sources may round a slice up to
	// whole sample periods, and a small margin keeps one extra sample
	// from regrowing the columns.
	n := int(math.Ceil(meta.RateHz*cfg.Slice.Seconds())) + 8
	d.batch.Time = make([]time.Duration, 0, n)
	d.batch.Chans = make([]float64, 0, n*max(d.chans, 1))
	d.batch.Total = make([]float64, 0, n)
	d.batch.Marks = make([]int, 0, 16)
	d.off = src.Now() - d.readAt
	d.pub.nowNanos.Store(int64(src.Now()))
	d.pub.nowOff.Store(int64(d.off))
	d.pub.resyncs.Store(int64(src.Resyncs()))
	return d
}

// frozenOff is the published clock offset of a station whose clock
// must not advance before its next read: far enough below zero that the
// shard clock never lifts it over the frozen source clock.
const frozenOff = math.MinInt64 / 2

// now returns the station's virtual time from the published cells: its
// source's clock as of the last read, carried forward by the shard clock
// over the quanta skipped since unless the offset is frozen. A station
// stepped in the quantum under way reads its new time at once, as a
// skipped one reads its exact time once the quantum ends. publish stores
// the offset before the source clock, so a reader mixing two reads'
// cells sees the older time.
func (d *Device) now() time.Duration {
	now := d.pub.nowNanos.Load()
	if skipped := d.clk.Load() + d.pub.nowOff.Load(); skipped > now {
		now = skipped
	}
	return time.Duration(now)
}

// Name returns the station's fleet name.
func (d *Device) Name() string { return d.name }

// Kind returns the station's spec kind (e.g. "rtx4000ada", "nvml").
func (d *Device) Kind() string { return d.kind }

// Meta returns the station's measurement source metadata.
func (d *Device) Meta() source.Meta { return d.meta }

// Ring returns the station's downsampled ring buffer.
func (d *Device) Ring() *Ring { return d.ring }

// ingestBatch folds a columnar batch into the in-flight downsample block,
// emitting a ring point at every block boundary. It walks each column in
// boundary-bounded runs — no per-sample dispatch, no appends, no
// allocations — with the reduction loops two-way unrolled into
// independent accumulators so they are not serialised on a single
// floating-point add chain. Called with d.mu held (via step).
func (d *Device) ingestBatch(b *source.Batch) {
	n := b.Len()
	if n == 0 {
		return
	}
	d.samples += uint64(n)
	totals := b.Total
	times := b.Time
	chans := b.Chans
	stride := d.chans
	marks := b.Marks
	mk := 0 // cursor into marks (ascending sample indices)
	for i := 0; i < n; {
		run := d.block - d.accN
		if rem := n - i; rem < run {
			run = rem
		}
		// Summed-power column: running sum and block min/max.
		seg := totals[i : i+run]
		lo, hi := d.accMin, d.accMax
		if d.accN == 0 {
			lo, hi = seg[0], seg[0]
		}
		var sumA, sumB float64
		j := 0
		for ; j+1 < len(seg); j += 2 {
			a, b2 := seg[j], seg[j+1]
			sumA += a
			sumB += b2
			if a < lo {
				lo = a
			}
			if a > hi {
				hi = a
			}
			if b2 < lo {
				lo = b2
			}
			if b2 > hi {
				hi = b2
			}
		}
		if j < len(seg) {
			a := seg[j]
			sumA += a
			if a < lo {
				lo = a
			}
			if a > hi {
				hi = a
			}
		}
		d.accSum += sumA + sumB
		d.accMin, d.accMax = lo, hi
		// Per-channel columns: running sums, with the common strides
		// specialised so the inner loop carries no bounds rechecks.
		switch stride {
		case 1:
			row := chans[i : i+run]
			var s0, s1 float64
			j := 0
			for ; j+1 < len(row); j += 2 {
				s0 += row[j]
				s1 += row[j+1]
			}
			if j < len(row) {
				s0 += row[j]
			}
			d.pairSums[0] += s0 + s1
		case 3:
			row := chans[i*3 : (i+run)*3]
			var s0, s1, s2, t0, t1, t2 float64
			j := 0
			for ; j+5 < len(row); j += 6 {
				s0 += row[j]
				s1 += row[j+1]
				s2 += row[j+2]
				t0 += row[j+3]
				t1 += row[j+4]
				t2 += row[j+5]
			}
			if j < len(row) {
				s0 += row[j]
				s1 += row[j+1]
				s2 += row[j+2]
			}
			d.pairSums[0] += s0 + t0
			d.pairSums[1] += s1 + t1
			d.pairSums[2] += s2 + t2
		default:
			for j := i; j < i+run; j++ {
				row := chans[j*stride : j*stride+stride]
				for m, w := range row {
					d.pairSums[m] += w
				}
			}
		}
		// Marker column: count the time-synced markers landing in this
		// run, so they survive downsampling into the block's ring point
		// instead of being averaged away. Marks is empty in steady state,
		// so this is a no-op comparison per run.
		for mk < len(marks) && marks[mk] < i+run {
			d.accMarks++
			d.marks++
			mk++
		}
		d.accN += run
		i += run
		if d.accN == d.block {
			d.emit(times[i-1])
		}
	}
}

// pendCap bounds the completed points staged between ring flushes: the
// default config completes five blocks per step, so one flush per step
// is the steady state and long catch-up steps flush every pendCap blocks.
const pendCap = 8

// emit closes the in-flight block: its means go to the staging area (and
// to scratch, for publication at the end of the step), reaching the ring
// in batched PushN flushes. Nothing here allocates or locks. Publication
// of the block averages is likewise deferred to the end of the step —
// atomic stores are sequentially-consistent exchanges on most
// architectures, too expensive to pay per block when one refresh per
// step gives readers the same freshness.
func (d *Device) emit(t time.Duration) {
	inv := 1 / float64(d.accN)
	mean := d.accSum * inv
	w := d.pendWatts[d.pendN*d.chans : (d.pendN+1)*d.chans]
	for m := 0; m < d.chans; m++ {
		mw := d.pairSums[m] * inv
		w[m] = mw
		d.scratch[m] = mw
		d.pairSums[m] = 0
	}
	d.pendTime[d.pendN] = t
	d.pendTotal[d.pendN] = mean
	d.pendMarks[d.pendN] = d.accMarks
	d.pendN++
	d.observeFlat()
	d.accMean = mean
	d.emitted = true
	if d.pendN == pendCap {
		d.flush()
	}
	d.accN = 0
	d.accMarks = 0
	d.accSum = 0
}

// flush moves the staged points into the ring and the history series,
// one lock acquisition each. A history block seal is the only
// allocation on the ingest path. Called with d.mu held, at staging
// capacity and at the end of every step.
func (d *Device) flush() {
	if d.pendN == 0 {
		return
	}
	n := d.pendN
	d.ring.PushN(d.pendTime[:n], d.pendWatts[:n*d.chans], d.pendTotal[:n], d.pendMarks[:n])
	d.hist.AppendN(d.pendTime[:n], d.pendTotal[:n])
	d.ringTotal += uint64(n)
	d.pendN = 0
}

// publish refreshes the atomically published telemetry from the ingest
// state: once per read, plus per-block values only when a block completed
// since the last refresh. Rarely-changing cells are compared before being
// stored, trading a cheap atomic load for the full exchange. Called with
// d.mu held.
func (d *Device) publish() {
	d.pub.samples.Store(d.samples)
	srcNow := d.src.Now()
	off := srcNow - d.readAt
	pubOff := int64(off)
	if off != d.off || d.closed || d.wd.parked || d.wd.backoff {
		pubOff = frozenOff
	}
	d.off = off
	d.pub.nowOff.Store(pubOff)
	d.pub.nowNanos.Store(int64(srcNow))
	d.pub.joules.Store(math.Float64bits(d.src.Joules() - d.baseJ))
	if r := int64(d.src.Resyncs()); d.pub.resyncs.Load() != r {
		d.pub.resyncs.Store(r)
	}
	if d.ov != nil {
		d.pub.overhead.Store(int64(d.ov.Overhead()))
	}
	if d.pub.marks.Load() != d.marks {
		d.pub.marks.Store(d.marks)
	}
	wdChanged := false
	if d.pub.gaps.Load() != d.wd.gaps {
		d.pub.gaps.Store(d.wd.gaps)
		wdChanged = true
	}
	if d.pub.flatlines.Load() != d.wd.flatlines {
		d.pub.flatlines.Store(d.wd.flatlines)
		wdChanged = true
	}
	if d.pub.spikesQ.Load() != d.wd.spikesQ {
		d.pub.spikesQ.Store(d.wd.spikesQ)
		wdChanged = true
	}
	if d.pub.restarts.Load() != d.wd.restarts {
		d.pub.restarts.Store(d.wd.restarts)
		wdChanged = true
	}
	if wdChanged {
		d.pub.wdGen.Add(1)
	}
	if !d.emitted {
		return
	}
	d.emitted = false
	d.pub.watts.Store(math.Float64bits(d.accMean))
	for m := 0; m < d.chans; m++ {
		d.pub.pair[m].Store(math.Float64bits(d.scratch[m]))
	}
	d.pub.ringTotal.Store(d.ringTotal)
	held := d.ringTotal
	if c := uint64(d.ring.Cap()); held > c {
		held = c
	}
	d.pub.ringLen.Store(int64(held))
}

// foldSampleEvery selects which reads contribute a fold-latency
// observation: every read whose ordinal is a multiple of it. At the
// uninstrumented baseline one timed read costs two clock reads plus a
// histogram Record (~70 ns) against ~680 ns of fold work per default
// 100-sample read — around 10%, over the ingest path's 5% overhead
// budget if paid every read. Sampling 1-in-32 amortises it well under
// 1% while a 200-read/s production station still records ~6
// observations per second, ample for a latency distribution. Must be a
// power of two; the selection is a mask test.
const foldSampleEvery = 32

// never is the due time of a station that is never stepped again.
const never = time.Duration(math.MaxInt64)

// step advances the station to shard time end and returns the shard time
// at which it is next due (see nextDue). Its home shard calls it only
// when the station is due, so the quanta skipped since the last read are
// owed, and advance reads them and the current quantum in one ReadInto
// call. A closed station is never due.
func (d *Device) step(end time.Duration) time.Duration {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return never
	}
	return d.advance(end)
}

// advance is step with d.mu held. On sampled reads the fold (despike +
// ingest + flush, its history append included, + publish; source read
// excluded) is timed into the manager's shared fold histogram; the clock
// reads are all a sampled read adds, so the sample is unbiased.
//
// The health watchdog brackets the read: a source in a restart backoff
// window (or parked for good) is not read at all — its virtual time
// freezes and the silence drives it stale — and a ReadInto error starts
// or deepens a backoff cycle while whatever samples arrived before the
// failure are still ingested. A parked station is never due, and one in
// backoff is next due when its window ends, so a visit to it is the
// restart.
func (d *Device) advance(end time.Duration) time.Duration {
	w := &d.wd
	if w.backoff {
		d.restart(end)
		d.refreshHealth(end)
		d.publish()
		return d.nextDue(end)
	}
	dt := end - d.readAt
	d.readAt = end
	err := d.src.ReadInto(dt, &d.batch)
	got := d.batch.Len()
	switch {
	case err != nil:
		d.sourceFault(end)
	case got > 0:
		if w.wasFaulted {
			// First delivering read after a fault cycle: the source is
			// back. Success means samples, not just a nil error — a
			// restarted source staying silent must keep burning its
			// bounded budget rather than resetting it.
			w.wasFaulted = false
			w.nextBackoff = backoffInit
			w.restartsLeft = restartBudget
			d.healthEvent(obs.EventRestart, "recovered")
		}
		if d.period > 0 {
			// The next sample is due one period after this read's last
			// one, mapped from the source's clock onto the shard's. A
			// timestamp ahead of the clock counts as on it, so the due
			// time is never further off than one period.
			lag := max(d.src.Now()-d.batch.Time[got-1], 0)
			d.sampleDue = end - lag + d.period
		}
	case w.rst != nil && end-w.lastGot >= 2*staleAfter:
		// Sustained silence from a restartable source is treated like a
		// read error: kick a restart cycle. Sources that cannot restart
		// just go stale; there is nothing to retry.
		d.sourceFault(end)
	}
	timed := d.stepN&(foldSampleEvery-1) == 0
	var began time.Time
	if timed {
		began = time.Now()
	}
	d.despike(&d.batch, end)
	d.ingestBatch(&d.batch)
	d.flush()
	d.publish()
	if timed {
		d.foldHist.Record(time.Since(began))
	}
	d.stepN++
	d.observeRead(dt, got, end)
	d.refreshHealth(end)
	return d.nextDue(end)
}

// Status returns a snapshot of the station assembled from the published
// telemetry cells. It never takes the ingest mutex, so it cannot stall —
// or be stalled by — a station advancing at 20 kHz; values are at most
// one manager slice (and one downsample block) behind the ingest
// goroutine, and a station skipped between samples publishes what its
// last read delivered while its clock keeps the shard's time. After the
// fleet closes a station, the last published values remain readable.
func (d *Device) Status() Status {
	var out Status
	d.StatusInto(&out)
	return out
}

// StatusInto fills st like Status, reusing the capacity of st's
// PairWatts and Channels slices — the allocation-free form for scrapers
// that snapshot whole fleets at a fixed cadence. The filled slices remain
// the caller's own copies.
func (d *Device) StatusInto(st *Status) {
	pairWatts := st.PairWatts[:0]
	channels := st.Channels[:0]
	*st = Status{
		Name:              d.name,
		Kind:              d.kind,
		Backend:           d.meta.Backend,
		RateHz:            d.meta.RateHz,
		Pairs:             d.chans,
		State:             devState(d.pub.state.Load()).String(),
		Now:               d.now(),
		Watts:             math.Float64frombits(d.pub.watts.Load()),
		Joules:            math.Float64frombits(d.pub.joules.Load()),
		Samples:           d.pub.samples.Load(),
		Marks:             d.pub.marks.Load(),
		Resyncs:           int(d.pub.resyncs.Load()),
		OverheadSeconds:   time.Duration(d.pub.overhead.Load()).Seconds(),
		RingLen:           int(d.pub.ringLen.Load()),
		RingTotal:         d.pub.ringTotal.Load(),
		Health:            healthName(d.pub.health.Load()),
		Gaps:              d.pub.gaps.Load(),
		Flatlines:         d.pub.flatlines.Load(),
		SpikesQuarantined: d.pub.spikesQ.Load(),
		Restarts:          d.pub.restarts.Load(),
	}
	for m := 0; m < d.chans; m++ {
		pairWatts = append(pairWatts, math.Float64frombits(d.pub.pair[m].Load()))
	}
	st.PairWatts = pairWatts
	st.Channels = append(channels, d.meta.Channels...)
}

// Trace renders up to max of the most recent ring points as a trace.Trace,
// ready for the CSV/JSON writers. A non-positive max exports the whole
// ring. The trace's samples are the downsampled block averages, so its
// effective rate is the source's native rate divided by the block size.
func (d *Device) Trace(max int) *trace.Trace {
	pts := d.ring.Snapshot(max)
	tr := &trace.Trace{Pairs: d.chans}
	tr.Points = make([]trace.Point, 0, len(pts))
	for _, p := range pts {
		// Snapshot points are deep copies, so the trace may keep their
		// Watts rows without re-copying.
		tp := trace.Point{
			Time:   p.Time,
			Watts:  p.Watts,
			TotalW: p.Total,
		}
		if p.Marks > 0 {
			tp.Marker = 'M'
		}
		tr.Points = append(tr.Points, tp)
	}
	return tr
}

// close retires the device: a live source first reads the time it is owed
// up to its shard's clock, as it would have at its next due step; then
// the in-flight partial downsample block is drained as one final short
// point (its mean covers however many samples had accumulated), that
// point is flushed into the ring and the history series, the final
// telemetry is published with the clock frozen — then, and only then,
// the source is released. The ordering is the drain contract: every
// sample the device ingested reaches the ring and history before the
// source goes. It reports whether this call performed the close, so the
// manager logs exactly one close event per station however many paths
// (Remove, Close, repeated Close) race here.
func (d *Device) close() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return false
	}
	d.pub.state.Store(int32(devStopping))
	if end := time.Duration(d.clk.Load()); end > d.readAt && !d.wd.parked && !d.wd.backoff {
		d.advance(end)
	}
	if d.accN > 0 {
		d.emit(d.src.Now())
	}
	d.flush()
	d.closed = true
	d.publish()
	d.src.Close()
	d.pub.state.Store(int32(devClosed))
	return true
}
