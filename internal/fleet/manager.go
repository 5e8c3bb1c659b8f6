package fleet

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/protocol"
	"repro/internal/simsetup"
	"repro/internal/source"
)

// Config tunes a Manager. The zero value is usable: 5 ms slices, 1 ms
// ring points (block-20 at 20 kHz), 4096-point rings, 8 shards, unpaced.
type Config struct {
	// Slice is the virtual-time quantum the fleet advances per step:
	// Start's pacer steps every station by one Slice per quantum, and
	// StepAll splits larger steps into Slice quanta, so batch columns
	// pre-sized for one slice never regrow. Smaller slices reduce
	// snapshot latency; larger ones amortise locking and pacing.
	Slice time.Duration
	// Block sets the time width of one downsampled ring point: Block
	// sample sets at the PowerSensor3 base rate (20 → 1 ms points). Each
	// station derives its own block size from that period and its
	// source's native rate, clamped to at least one sample — so slow
	// software meters keep every sample while a 20 kHz sensor averages.
	Block int
	// RingCap is the per-station ring capacity in points.
	RingCap int
	// Rate paces virtual time against the wall clock in virtual seconds
	// per wall second (1 = real time). Zero runs as fast as the host
	// allows — the mode benchmarks and tests use.
	Rate float64
	// EventCap is the capacity of the fleet's lifecycle event ring (see
	// Events); once full, new events overwrite oldest-first with a drop
	// counter. Zero means 256 — weeks of ordinary churn.
	EventCap int
	// Shards is the number of fixed partitions the fleet is split into.
	// Each station hashes to a shard by name; each shard owns its own
	// copy-on-write device list, churn counters, render generation and
	// step worker, so churn, stepping, snapshots and scrape rendering
	// contend per shard instead of fleet-wide. Zero means 8; values are
	// clamped to [1, MaxShards]. Shards=1 recovers the unsharded
	// behaviour exactly (one list, one generation, serial stepping).
	Shards int
	// HistoryBytes bounds each station's compressed long-horizon history
	// series (internal/history), appended to at every ingest flush and
	// queried by EnergyWindow. Zero or negative means the history
	// default (1 MiB per station).
	HistoryBytes int
}

func (c Config) withDefaults() Config {
	if c.Slice <= 0 {
		c.Slice = 5 * time.Millisecond
	}
	if c.Block <= 0 {
		c.Block = 20
	}
	if c.RingCap <= 0 {
		c.RingCap = 4096
	}
	if c.EventCap <= 0 {
		c.EventCap = 256
	}
	if c.Shards == 0 {
		c.Shards = 8
	}
	if c.Shards < 1 {
		c.Shards = 1
	}
	if c.Shards > MaxShards {
		c.Shards = MaxShards
	}
	return c
}

// pointPeriod is the target time width of one downsampled ring point:
// Block sample sets at the PowerSensor3 base rate.
func (c Config) pointPeriod() time.Duration {
	return time.Duration(float64(c.Block) * float64(time.Second) / protocol.SampleRateHz)
}

// stepParallelMin is the fleet size below which stepQuantum stays serial:
// handing a quantum to the shard workers costs a channel round-trip and
// a WaitGroup rendezvous per shard, which swamps the win when each shard
// holds only a handful of stations.
const stepParallelMin = 64

// Manager owns a fleet of named stations and steps them all through one
// loop, stepQuantum, driven by Start's pacer or by StepAll. The fleet is
// fully dynamic: Add adopts a station at any time — before Start, or
// against a running manager, which steps it from the next quantum — and
// Remove retires one at any time, draining its final downsample block
// into the ring and history. Snapshots, traces and energy queries are
// safe at any time from any goroutine, concurrently with churn.
//
// The fleet is partitioned into Config.Shards fixed shards by a hash of
// the station name. Each shard publishes its own copy-on-write device
// list (sorted by name) through an atomic pointer: Add and Remove (rare)
// rebuild only their shard's slice, whose atomic swap is the lifecycle
// commit point, while the hot readers — the step workers, Snapshot,
// the exporter's per-shard renderers — load a list with no
// lock and no per-call copy. Fleet-wide sorted iteration (Names,
// Snapshot) merges the shard lists on the fly. A reader holding an old
// slice may briefly step or snapshot a retiring device; both are
// harmless, because a retired device's step is a no-op and its last
// published telemetry stays readable.
type Manager struct {
	cfg    Config
	shards []shard

	// Fleet-wide lifetime churn counters, exported as
	// powersensor_fleet_{adopted,retired}_total. Each shard additionally
	// keeps its own pair, which feed the per-shard render generations.
	adopted atomic.Uint64
	retired atomic.Uint64

	// Self-telemetry. foldHist is the fleet-wide distribution of per-step
	// ingest-fold latency (ReadInto excluded — that is the source's
	// sampling cost, accounted separately via source.Overheader), sampled
	// one step in foldSampleEvery to stay inside the ingest path's
	// overhead budget. paceHist is pacer lateness: how far behind its
	// absolute schedule each paced quantum boundary lands. stepHist is
	// the time to advance one shard's stations by one quantum. stageHists
	// holds the ReadInto latency of every pipeline stage kind, recorded by
	// the stages of the stations Add adopted. events holds the structured
	// lifecycle log.
	foldHist   obs.Hist
	paceHist   obs.Hist
	stepHist   obs.Hist
	stageHists pipeline.Hists
	// histQueryHist times one windowed energy query fleet-wide. Queries
	// run off the ingest path, so an unsharded histogram suffices; the
	// history append is timed inside the fold histogram.
	histQueryHist obs.Hist
	events        *obs.EventRing

	mu        sync.Mutex
	byName    map[string]*Device
	stop      chan struct{} // non-nil while Started; closing it ends the pacer
	pacerDone chan struct{} // closed by the pacer on exit

	// Parallel stepping state: stepMu serialises fan-outs (the pacer and
	// concurrent StepAll callers queue rather than interleave on one
	// WaitGroup), stepWG tracks the in-flight shard quanta of the current
	// fan-out, and workersOn (guarded by stepMu) says whether the
	// persistent per-shard step workers are running. Workers start lazily
	// on the first parallel quantum — fleets under stepParallelMin never
	// pay for them — and exit when Close closes their channels.
	stepMu    sync.Mutex
	stepWG    sync.WaitGroup
	workersOn bool
}

// NewManager returns an empty manager.
func NewManager(cfg Config) *Manager {
	m := &Manager{cfg: cfg.withDefaults(), byName: make(map[string]*Device)}
	m.shards = make([]shard, m.cfg.Shards)
	for i := range m.shards {
		m.shards[i].devices.Store(new([]*Device))
	}
	m.events = obs.NewEventRing(m.cfg.EventCap)
	return m
}

// FromSpec builds a manager holding the fleet described by spec (see
// simsetup.ParseFleet for the name=kindspec grammar, including the
// derived-source pipe stages).
func FromSpec(spec string, seed uint64, cfg Config) (*Manager, error) {
	members, err := simsetup.ParseFleet(spec, seed)
	if err != nil {
		return nil, err
	}
	m := NewManager(cfg)
	for i, mem := range members {
		if _, err := m.Add(mem.Name, mem.Kind, mem.Src); err != nil {
			// Release the stations adopted so far and the ones not yet
			// handed over (ParseFleet pre-validates names, so this path
			// is defensive).
			m.Close()
			for _, rest := range members[i:] {
				rest.Src.Close()
			}
			return nil, err
		}
	}
	return m, nil
}

// ShardCount returns the number of fixed shards the fleet is split into.
func (m *Manager) ShardCount() int { return len(m.shards) }

// ShardOf returns the shard the named station lives in (whether or not
// it currently exists): a pure function of the name, so a retired and
// re-added station always comes back to the same shard.
func (m *Manager) ShardOf(name string) int {
	return shardOf(name, len(m.shards))
}

// Add adopts a measurement source as a named station, at any time: on a
// stopped manager the station waits for Start, on a running one the
// pacer steps it from its next quantum — the hot-add path a serving
// daemon uses when a rig is cabled up. The atomic swap of the station's
// home-shard list is the commit point at which concurrent
// Snapshot/scrape/StepAll callers begin to see the station. The
// source's pipeline stages record into the manager's StageHists.
func (m *Manager) Add(name, kind string, src source.Source) (*Device, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.byName[name]; dup {
		return nil, fmt.Errorf("fleet: duplicate station %q", name)
	}
	m.stageHists.Bind(src)
	sh := &m.shards[shardOf(name, len(m.shards))]
	d := newDevice(name, kind, src, m.cfg, &sh.clock, &m.foldHist, &m.histQueryHist, m.events)
	old := sh.list()
	at := sort.Search(len(old), func(i int) bool { return old[i].name > name })
	next := slices.Insert(slices.Clip(old), at, d) // a copy: readers hold old
	sh.devices.Store(&next)
	m.byName[name] = d
	m.adopted.Add(1)
	sh.adopted.Add(1)
	m.events.Append(obs.EventAdopt, name, kind, "add")
	if m.stop != nil {
		d.pub.state.Store(int32(devStarted))
		m.events.Append(obs.EventStart, name, kind, "")
	}
	return d, nil
}

// Remove retires the named station. The copy-on-write swap of its home
// shard's list is the commit point — concurrent Snapshot, scrape and
// StepAll callers stop seeing the station the moment it lands — after
// which Remove waits out any in-flight step of the station, drains the
// in-flight downsample block into the ring and history as a final short
// point and releases the source; the station's ring stays readable to
// callers still holding the device. Safe to call from any goroutine,
// concurrently with Add, Stop, snapshots and queries; removing an
// unknown (or already removed) station returns an error.
func (m *Manager) Remove(name string) error {
	m.mu.Lock()
	d := m.byName[name]
	if d == nil {
		m.mu.Unlock()
		return fmt.Errorf("fleet: Remove(%q): unknown station", name)
	}
	delete(m.byName, name) // claims the device: no second Remove can reach it
	sh := &m.shards[shardOf(name, len(m.shards))]
	next := slices.DeleteFunc(slices.Clone(sh.list()), func(o *Device) bool { return o == d })
	sh.devices.Store(&next) // commit: new readers no longer see the station
	m.retired.Add(1)
	sh.retired.Add(1)
	m.events.Append(obs.EventRetire, name, d.kind, "remove")
	m.mu.Unlock()

	// Drain without the manager lock: close waits out a quantum stepping
	// the station now, and a quantum still holding the old list no-ops.
	if d.close() {
		m.events.Append(obs.EventClose, name, d.kind, "remove")
	}
	return nil
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// ShardGen returns shard s's generation fingerprint: a hash folding the
// shard's churn counters and each of its stations' ever-produced
// ring-point counts and watchdog generations, computed from the same
// atomically published cells snapshots read — no manager lock, no device
// ingest mutex, O(shard stations) atomic loads. The fingerprint changes
// whenever a station in this shard completes a downsample block, churns
// in or out, or publishes a health transition or episode counter, which
// is exactly when a rendered exposition segment of this shard goes stale —
// and only then, so one busy station invalidates one shard's cached
// segment while the other shards' segments stay servable. Distinct
// shard states could in principle collide in the 64-bit hash; with
// FNV-style mixing that is vanishingly unlikely and the cost is one
// stale scrape of one shard, not corruption.
func (m *Manager) ShardGen(s int) uint64 {
	sh := &m.shards[s]
	h := uint64(fnvOffset64)
	mix := func(v uint64) {
		h ^= v
		h *= fnvPrime64
	}
	mix(sh.adopted.Load())
	mix(sh.retired.Load())
	for _, d := range sh.list() {
		mix(d.pub.ringTotal.Load())
		// The watchdog generation moves independently of block
		// production: a station going stale or parked freezes its
		// ringTotal while its published health changes — without this
		// fold the cached segment would serve the old health forever.
		mix(d.pub.wdGen.Load())
	}
	return h
}

// Gen returns a generation fingerprint of the whole fleet's
// block-boundary state, folding every shard's generation. It changes
// whenever any station completes a downsample block or the fleet churns
// — the condition under which any fleet-derived rendering goes stale.
// Consumers that can act per shard should prefer ShardGen, which is what
// lets a busy station invalidate one shard instead of the fleet.
func (m *Manager) Gen() uint64 {
	h := uint64(fnvOffset64)
	for s := range m.shards {
		h ^= m.ShardGen(s)
		h *= fnvPrime64
	}
	return h
}

// Adopted returns the number of stations ever adopted by Add.
func (m *Manager) Adopted() uint64 { return m.adopted.Load() }

// Retired returns the number of stations ever retired by Remove.
func (m *Manager) Retired() uint64 { return m.retired.Load() }

// Events returns the fleet's lifecycle event ring: one structured entry
// per adopt/start/retire/close transition, oldest overwritten first once
// the ring fills (Config.EventCap). The ring is safe for concurrent
// reads while the fleet churns; daemons serve its Tail as /api/events.
func (m *Manager) Events() *obs.EventRing { return m.events }

// IngestFoldHist returns the fleet-wide latency histogram of the ingest
// fold — the per-read cost of folding one source batch into the
// downsample accumulators, staging area and published cells, excluding
// the source's own ReadInto. To keep the hot path inside its overhead
// budget the fold is timed on a 1-in-foldSampleEvery read sample, so the
// histogram holds a uniform sample of reads, not every read.
func (m *Manager) IngestFoldHist() *obs.Hist { return &m.foldHist }

// StageHists returns the ReadInto latency histograms of the pipeline
// stages of this manager's stations, one per stage kind (indexed like
// pipeline.Stages). Add binds each station's chain of stages down to the
// first source that is not a stage (see pipeline.Hists.Bind), so a chain
// whose outermost source is some other wrapper, such as perfbench's
// --trace timing wrappers, records nothing here.
func (m *Manager) StageHists() *pipeline.Hists { return &m.stageHists }

// PaceLatenessHist returns the distribution of pacer lateness on paced
// fleets (Config.Rate > 0): how far past its absolute schedule each fleet
// quantum completed — timer overshoot when the host keeps up, whole-
// quantum overruns when it does not. Unpaced fleets record nothing.
func (m *Manager) PaceLatenessHist() *obs.Hist { return &m.paceHist }

// HistoryQueryHist returns the latency distribution of windowed energy
// queries (Device.EnergyWindow).
func (m *Manager) HistoryQueryHist() *obs.Hist { return &m.histQueryHist }

// ShardStepHist returns the distribution of per-shard quantum latency:
// the time one shard took to step its due stations through one slice
// quantum, whether stepped serially or by its shard worker, and whether
// the quantum came from Start's pacer or from StepAll. A quantum in which
// nothing of the shard is due records nothing.
func (m *Manager) ShardStepHist() *obs.Hist { return &m.stepHist }

// HealthCounts tallies the fleet's published health states: stations is
// the fleet size, degraded counts every station not currently healthy,
// and down counts the subset that is stale or flatlined — serving
// nothing, or serving fake liveness. Like Snapshot it reads only the
// atomically published health cells — no manager lock, no ingest mutexes
// — so /healthz can poll it on every probe.
func (m *Manager) HealthCounts() (stations, degraded, down int) {
	for s := range m.shards {
		for _, d := range m.shards[s].list() {
			stations++
			h := d.pub.health.Load()
			if h != healthHealthy {
				degraded++
			}
			if h >= healthFlatlined {
				down++
			}
		}
	}
	return stations, degraded, down
}

// RingOccupancy sums ring fill across the fleet: points currently held
// in every station's ring and the total capacity. Like Snapshot it reads
// only atomically published cells and each ring's fixed capacity — no
// manager lock, no ingest or ring mutexes — so it is safe on every scrape
// even when the body cache skips the full snapshot.
func (m *Manager) RingOccupancy() (held, capacity int) {
	for s := range m.shards {
		for _, d := range m.shards[s].list() {
			held += int(d.pub.ringLen.Load())
			capacity += d.ring.Cap()
		}
	}
	return held, capacity
}

// Device returns the named station, or nil.
func (m *Manager) Device(name string) *Device {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.byName[name]
}

// Names returns the station names in sorted order.
func (m *Manager) Names() []string {
	return m.NamesInto(nil)
}

// NamesInto is Names appending into dst — reusing dst's capacity, so
// callers polling a large fleet on a timer pass the previous call's
// slice (re-sliced to length zero) and stay allocation-free in steady
// state. Names arrive in global sorted order, merged across shards
// without allocating.
func (m *Manager) NamesInto(dst []string) []string {
	var it devIter
	it.init(m.shards)
	for d := it.next(); d != nil; d = it.next() {
		dst = append(dst, d.name)
	}
	return dst
}

// Size returns the number of stations.
func (m *Manager) Size() int {
	n := 0
	for s := range m.shards {
		n += len(m.shards[s].list())
	}
	return n
}

// Start launches the fleet's pacer: one goroutine stepping every station
// by Config.Slice per quantum through stepQuantum, paced against the wall
// clock when Config.Rate is set. Stations Added while running join at the
// next quantum. Start is idempotent until Stop.
func (m *Manager) Start() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.stop != nil {
		return
	}
	m.stop, m.pacerDone = make(chan struct{}), make(chan struct{})
	for s := range m.shards {
		for _, d := range m.shards[s].list() {
			d.pub.state.Store(int32(devStarted))
			m.events.Append(obs.EventStart, d.name, d.kind, "")
		}
	}
	go m.pace(m.stop, m.pacerDone)
}

// pace steps the fleet one quantum at a time until stop closes, then
// closes done. It paces against an absolute schedule, not per-quantum
// sleeps: timer overshoot and slow quanta borrow from later ones, so
// virtual time tracks wall × rate without drift. More than a second
// behind, it resyncs instead of bursting to catch up.
func (m *Manager) pace(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	var wallPerQuantum time.Duration
	if m.cfg.Rate > 0 {
		wallPerQuantum = time.Duration(float64(m.cfg.Slice) / m.cfg.Rate)
	}
	next := time.Now()
	for {
		select {
		case <-stop:
			return
		default:
		}
		m.stepQuantum(m.cfg.Slice)
		if wallPerQuantum == 0 {
			if m.Size() == 0 { // unpaced and empty: idle, don't spin
				select {
				case <-stop:
					return
				case <-time.After(m.cfg.Slice):
				}
			}
			continue
		}
		next = next.Add(wallPerQuantum)
		rest := time.Until(next)
		if rest <= 0 {
			m.paceHist.Record(-rest) // the quantum overran its wall budget
			if rest < -time.Second {
				next = time.Now()
			}
			continue
		}
		select {
		case <-stop:
			return
		case <-time.After(rest):
			m.paceHist.Record(time.Since(next)) // timer overshoot
		}
	}
}

// Stop halts the pacer, returns the driven stations to adopted and waits
// off the lock for the in-flight quantum. The fleet can be Started again;
// a Start racing that wait steps beside it, as stepQuantum allows.
func (m *Manager) Stop() {
	m.mu.Lock()
	stop, done := m.stop, m.pacerDone
	if stop != nil {
		close(stop)
		m.stop = nil
		for s := range m.shards {
			for _, d := range m.shards[s].list() {
				d.pub.state.CompareAndSwap(int32(devStarted), int32(devAdopted))
			}
		}
	}
	m.mu.Unlock()
	if done != nil {
		<-done // closed once that run's pacer has exited
	}
}

// StepAll synchronously advances every station by d of virtual time —
// deterministic semantics for tests, benchmarks and one-shot tools — in
// the Config.Slice quanta Start's pacer steps, which keeps batch columns
// within their pre-sized capacity on warmup bursts. Safe to call while
// Started (quanta interleave with the pacer's), though deterministic
// only when stopped.
func (m *Manager) StepAll(d time.Duration) {
	for d > 0 {
		q := d
		if q > m.cfg.Slice {
			q = m.cfg.Slice
		}
		m.stepQuantum(q)
		d -= q
	}
}

// stepQuantum advances every station by one quantum, stepping only the
// stations due within it (see shard.step); a shard with nothing due just
// moves its clock. Small fleets step serially. Fleets of at least
// stepParallelMin stations hand each shard with something due to its
// persistent worker, with a full rendezvous so no station runs ahead;
// the handoff is a channel send of a scalar, so the fan-out allocates
// nothing in steady state at any fleet size.
func (m *Manager) stepQuantum(q time.Duration) {
	parallel := len(m.shards) > 1 && m.Size() >= stepParallelMin
	if parallel {
		m.stepMu.Lock()
		m.ensureStepWorkers()
	}
	for s := range m.shards {
		sh := &m.shards[s]
		if len(sh.list()) == 0 || sh.skip(q) {
			continue
		}
		if parallel {
			m.stepWG.Add(1)
			sh.stepCh <- q
		} else {
			m.stepShard(sh, q)
		}
	}
	if parallel {
		m.stepWG.Wait()
		m.stepMu.Unlock()
	}
}

// stepShard steps one shard by quantum q, timed into the shard step
// histogram.
func (m *Manager) stepShard(sh *shard, q time.Duration) {
	began := time.Now()
	sh.step(q)
	m.stepHist.Record(time.Since(began))
}

// ensureStepWorkers launches the persistent per-shard step workers.
// Called with stepMu held; idempotent until Close shuts them down.
func (m *Manager) ensureStepWorkers() {
	if m.workersOn {
		return
	}
	m.workersOn = true
	for s := range m.shards {
		sh := &m.shards[s]
		sh.stepCh = make(chan time.Duration)
		go m.stepWorker(sh)
	}
}

// stepWorker advances one shard by each quantum handed to it. The shard
// always steps its current published list, so stations hot-added or
// retired between quanta are picked up or dropped naturally. Exits when
// Close closes the channel.
func (m *Manager) stepWorker(sh *shard) {
	for q := range sh.stepCh {
		m.stepShard(sh, q)
		m.stepWG.Done()
	}
}

// Snapshot returns the status of every station, sorted by name. It takes
// no manager lock and no device ingest mutex — each status is assembled
// from the device's atomically published telemetry — so snapshotting a
// large fleet cannot stall (or be stalled by) any station's ingest.
func (m *Manager) Snapshot() []Status {
	return m.SnapshotInto(nil)
}

// SnapshotInto is Snapshot appending into dst — reusing dst's capacity
// and, for recycled entries, the capacity of their PairWatts and Channels
// slices. Scrapers that snapshot a large fleet at a fixed cadence pass
// the previous scrape's slice (re-sliced to length zero) to make the
// whole snapshot allocation-free in steady state. Order is global sorted
// by name, merged across shards without allocating.
func (m *Manager) SnapshotInto(dst []Status) []Status {
	var it devIter
	it.init(m.shards)
	for d := it.next(); d != nil; d = it.next() {
		dst = appendStatus(dst, d)
	}
	return dst
}

// ShardSnapshotInto appends the status of every station in shard s into
// dst, sorted by name, with the same reuse semantics as SnapshotInto —
// the per-shard form the exporter's segment renderers use, so rendering
// one stale shard snapshots that shard alone.
func (m *Manager) ShardSnapshotInto(s int, dst []Status) []Status {
	for _, d := range m.shards[s].list() {
		dst = appendStatus(dst, d)
	}
	return dst
}

// appendStatus appends d's status to dst, recycling spare capacity and
// the recycled entry's own slices.
func appendStatus(dst []Status, d *Device) []Status {
	if len(dst) < cap(dst) {
		dst = dst[:len(dst)+1]
	} else {
		dst = append(dst, Status{})
	}
	d.StatusInto(&dst[len(dst)-1])
	return dst
}

// Close stops the fleet, shuts down the shard step workers and releases
// every station's sensor.
func (m *Manager) Close() {
	m.Stop()
	m.stepMu.Lock()
	if m.workersOn {
		m.workersOn = false
		for s := range m.shards {
			close(m.shards[s].stepCh)
			m.shards[s].stepCh = nil
		}
	}
	m.stepMu.Unlock()
	for s := range m.shards {
		for _, d := range m.shards[s].list() {
			if d.close() {
				m.events.Append(obs.EventClose, d.name, d.kind, "shutdown")
			}
		}
	}
}
