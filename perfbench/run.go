package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/fleet"
)

// clock maps the fleets' virtual time to wall time, for the data age and
// the fleet lag: a stepped fleet's virtual time is whatever the driver
// last stepped it to, logged with the wall time each StepAll returned.
type clock struct {
	vt  atomic.Int64
	mu  sync.Mutex
	log []clockEntry
}

type clockEntry struct {
	vt time.Duration
	at time.Time
}

func newClock() *clock {
	c := &clock{}
	c.vt.Store(int64(warmup))
	return c
}

// vnow returns the fleets' current virtual time.
func (c *clock) vnow() time.Duration { return time.Duration(c.vt.Load()) }

// stepped records that every station reached vt when a StepAll returned at.
func (c *clock) stepped(vt time.Duration, at time.Time) {
	c.mu.Lock()
	c.log = append(c.log, clockEntry{vt, at})
	c.mu.Unlock()
	c.vt.Store(int64(vt))
}

// ages appends, in ms, how old each served station clock clocks[i] (in
// virtual seconds) with i%every == phase was when read at recv: as old as
// the return of the StepAll that brought the fleet to it.
func (c *clock) ages(dst []float64, clocks []float64, recv time.Time, every, phase int) []float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	lastV, lastAt := math.NaN(), time.Time{}
	for i := phase; i < len(clocks); i += every {
		v := clocks[i]
		if v != lastV {
			j := sort.Search(len(c.log), func(j int) bool { return c.log[j].vt.Seconds() >= v-1e-9 })
			lastV, lastAt = v, recv // stepped past the last log entry: just produced
			if j < len(c.log) {
				lastAt = c.log[j].at
			}
		}
		dst = append(dst, math.Max(0, ms(recv.Sub(lastAt))))
	}
	return dst
}

// rates splits the wall time since start into whole seconds and returns
// each second's ingest rate in Msamples/s: the virtual time the driver
// covered in it, times the samples per virtual second the phase averaged.
func (c *clock) rates(start time.Time, samples uint64) []float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.log) == 0 {
		return nil
	}
	last := c.log[len(c.log)-1]
	perVS := float64(samples) / (last.vt - warmup).Seconds()
	var out []float64
	j, vt := 0, warmup
	for end := start.Add(time.Second); !end.After(last.at); end = end.Add(time.Second) {
		from := vt
		for ; j < len(c.log) && !c.log[j].at.After(end); j++ {
			vt = c.log[j].vt
		}
		out = append(out, (vt-from).Seconds()*perVS/1e6)
	}
	return out
}

// counts are one station's work counters.
type counts struct {
	samples, ring, spikes, gaps uint64
}

// snapshotCounts reads every non-churned station's counters.
func snapshotCounts(d *deployment) map[string]counts {
	out := map[string]counts{}
	var snap []fleet.Status
	for _, l := range d.leaves {
		snap = l.mgr.SnapshotInto(snap[:0])
		for _, st := range snap {
			if strings.HasPrefix(st.Name, churnPrefix) {
				continue
			}
			out[l.plan.name+"/"+st.Name] = counts{st.Samples, st.RingTotal, st.SpikesQuarantined, st.Gaps}
		}
	}
	return out
}

// phase is one measured phase's outcome.
type phase struct {
	stats      *loadStats
	checkFails int64
	checkErr   error
	ages       []float64 // data age, ms
	rates      []float64 // ingest per whole wall second, Msamples/s
	start      time.Time
	elapsed    time.Duration
	delta      counts // summed over stations present throughout
	heapMiB    float64
	hitRatio   float64
	renders    float64 // shard renders per scrape
	histPoints uint64
	histBytes  uint64
	cpuCores   float64 // process CPU seconds per wall second
}

// cpuTime returns the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (ph *phase) attempted() int64 { return ph.stats.attempted }
func (ph *phase) failed() int64    { return ph.stats.failed + ph.checkFails }

func (ph *phase) firstErr() error {
	if ph.stats.firstErr != nil {
		return ph.stats.firstErr
	}
	return ph.checkErr
}

// ingest returns the samples ingested per wall second, in millions: the
// median second, so a burst of other work on the host decides no run. A
// phase shorter than a second gives its average.
func (ph *phase) ingest() float64 {
	if len(ph.rates) == 0 {
		return float64(ph.delta.samples) / ph.elapsed.Seconds() / 1e6
	}
	return quantile(ph.rates, 0.5)
}

// pool merges the phases of one run: samples and counts add up, the
// heap is their median.
func pool(phs []*phase) *phase {
	m := &phase{stats: newLoadStats()}
	var heaps []float64
	for _, ph := range phs {
		for class, v := range ph.stats.lat {
			m.stats.lat[class] = append(m.stats.lat[class], v...)
		}
		m.stats.late = append(m.stats.late, ph.stats.late...)
		m.stats.attempted += ph.stats.attempted
		m.stats.failed += ph.stats.failed
		if m.stats.firstErr == nil {
			m.stats.firstErr = ph.stats.firstErr
		}
		m.checkFails += ph.checkFails
		if m.checkErr == nil {
			m.checkErr = ph.checkErr
		}
		m.ages = append(m.ages, ph.ages...)
		m.rates = append(m.rates, ph.rates...)
		m.elapsed += ph.elapsed
		m.delta.samples += ph.delta.samples
		m.delta.ring += ph.delta.ring
		m.delta.spikes += ph.delta.spikes
		m.delta.gaps += ph.delta.gaps
		m.cpuCores += ph.cpuCores / float64(len(phs))
		heaps = append(heaps, ph.heapMiB)
	}
	m.heapMiB = quantile(heaps, 0.5)
	return m
}

// runPhase drives d with p's load for dur, then checks the daemon's
// outputs and gathers the phase's numbers. Phase n of a run draws its
// own request schedule.
func runPhase(p *plan, d *deployment, seed uint64, n int, dur time.Duration) *phase {
	rng := rand.New(rand.NewPCG(seed, 0x6c6f6164+uint64(n)))
	expected := map[string][]string{}
	var targets []energyTarget
	for i, l := range d.leaves {
		expected[l.plan.name] = stationNames(l.plan)
		for _, st := range l.plan.stations {
			targets = append(targets, energyTarget{leaf: i, name: st.name})
		}
	}
	clk := newClock()
	var ages func([]float64, []float64, time.Time, int, int) []float64
	if p.drive != driveCycle {
		ages = clk.ages
	}
	chk := newChecker(expected, ages)
	stats := newLoadStats()
	ph := &phase{stats: stats}
	var nextID atomic.Int64
	gen := &generator{d: d, chk: chk, stats: stats, targets: targets, vnow: clk.vnow,
		nextID: &nextID, measured: true}
	ops := schedule(rng, p.mix, dur, len(targets))
	churnSeed := rng.Uint64()

	before := snapshotCounts(d)
	if d.tr != nil {
		d.tr.startMeasuring()
	}
	start, cpuStart := time.Now(), cpuTime()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	var cycleAges []float64
	goRun := func(fn func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn()
		}()
	}
	switch p.drive {
	case driveStep:
		goRun(func() { driveSteps(d, clk, deadline) })
	case driveCycle:
		drillRng := rand.New(rand.NewPCG(seed, 0x6472696c+uint64(n)))
		goRun(func() { cycleAges = driveCycles(p, d, clk, gen, drillRng, deadline) })
	}
	goRun(func() { gen.run(ops, p.workers, start) })
	goRun(func() { churn(p, d, stats, churnSeed, deadline) })
	if d.tr != nil {
		goRun(func() { sampleLag(d, clk, deadline) })
	}
	wg.Wait()
	ph.start, ph.elapsed = start, time.Since(start)
	ph.cpuCores = (cpuTime() - cpuStart).Seconds() / ph.elapsed.Seconds()

	after := snapshotCounts(d)
	for k, a := range after {
		b, ok := before[k]
		if !ok {
			continue
		}
		ph.delta.samples += a.samples - b.samples
		ph.delta.ring += a.ring - b.ring
		ph.delta.spikes += a.spikes - b.spikes
		ph.delta.gaps += a.gaps - b.gaps
	}
	ph.rates = clk.rates(start, ph.delta.samples)
	chk.close()
	ph.checkFails, ph.checkErr, ph.ages = chk.results()
	// Live heap with the daemon still up: two collections, so buffers
	// parked in sync.Pool victim caches are gone too. The history tier
	// grows with the virtual time a run reached, which is ingest speed,
	// so its own compressed bytes are left out.
	runtime.GC()
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	for _, l := range d.leaves {
		hs := l.mgr.HistoryStats()
		ph.histPoints += hs.Points
		ph.histBytes += hs.Bytes
	}
	ph.heapMiB = (float64(mem.HeapAlloc) - float64(ph.histBytes)) / (1 << 20)

	// Freeze the fleets, then check energy conservation end to end.
	for _, l := range d.leaves {
		l.mgr.Stop()
	}
	checkEnergyConservation(d, stats)
	if p.drive == driveCycle {
		ph.ages = cycleAges
	}
	ph.hitRatio, ph.renders = chk.cacheStats(d.leaves[0].plan.name)
	return ph
}

// stepSync is how much virtual time ingest-20k's driver steps between
// history syncs. A sync drains every ring inline, so ingest stalls while
// it runs. Once per virtual second, psd's -history-sync default, the stall
// lasts ~45 ms on a 2-vCPU Xeon VM and ~7% of scrapes land in it: the data
// age's p95 then sits on the cliff between those and the rest, and moves
// by half between runs. Five syncs per virtual second drain the same
// points in ~9 ms stalls, but ~10% of scrapes still land in them and the
// p95 is whichever stalled scrape ranks at the middle of those, so it
// moves with how many fell there (0.1-0.25 of its median across seeds).
// Twenty syncs per virtual second make each stall about as long as one
// StepAll, the p95 rests on the whole distribution, and it spreads by
// 0.07 across seeds.
const stepSync = 50 * time.Millisecond

// driveSteps is ingest-20k's driver: StepAll(slice) as fast as the host
// allows, SyncHistory inline every stepSync of virtual time. (Run beside
// the stepping, as psd's ticker runs beside paced drivers, the sync holds
// a core while both are saturated, and moves its stall from the data age
// into every request's tail instead.)
func driveSteps(d *deployment, clk *clock, deadline time.Time) {
	mgr := d.leaves[0].mgr
	vt := clk.vnow()
	nextSync := vt + stepSync
	for time.Now().Before(deadline) {
		began := time.Now()
		covered := d.stepAll(mgr, slice)
		vt += slice
		clk.stepped(vt, time.Now())
		if vt >= nextSync {
			covered += d.syncHistory(mgr)
			nextSync += stepSync
		}
		if d.tr != nil {
			d.tr.iteration(time.Since(began), covered)
		}
	}
}

// driveCycles is federated's closed loop: step every leaf (the busy one
// last), run one head poll round, GET the head's /metrics and check the
// busy leaf's canary shows the count just stepped, every drillEvery-th
// cycle drill down into one seeded station's energy through the head,
// then sync history once per virtual second. It returns each cycle's head
// freshness — StepAll return to head body — in ms, and records the head
// scrape as the "scrape" class and the drill-down as "energy". The sync
// comes after the head body, so it never sits inside a freshness window.
func driveCycles(p *plan, d *deployment, clk *clock, gen *generator, rng *rand.Rand, deadline time.Time) []float64 {
	client, tr := newClient()
	defer tr.CloseIdleConnections()
	busy := d.leaves[0]
	canary := busy.mgr.Device(p.canary)
	needle := []byte(`powersensor_samples_total{leaf="` + busy.plan.name + `",device="` + p.canary + `"} `)
	vt := clk.vnow()
	nextSync := vt + time.Second
	var ages []float64
	for n := 0; time.Now().Before(deadline); n++ {
		began := time.Now()
		var covered time.Duration
		for _, l := range d.leaves[1:] {
			covered += d.stepAll(l.mgr, slice)
		}
		covered += d.stepAll(busy.mgr, slice)
		stepped := time.Now()
		want := canary.Status().Samples
		vt += slice
		clk.stepped(vt, stepped)
		covered += d.pollOnce()
		buf := gen.chk.buffer()
		status, send, done, err := gen.get(client, d.headURL+"/metrics", "metrics", buf)
		if err == nil && status != 200 {
			err = fmt.Errorf("head /metrics: status %d", status)
		}
		if err == nil {
			err = checkCanary(buf.Bytes(), needle, want)
		}
		if d.tr != nil {
			d.tr.iteration(send.Sub(began), covered)
		}
		if err == nil && n%drillEvery == 0 {
			o := energyOp(rng, op{kind: opHeadEnergy, class: "energy"}, len(gen.targets))
			gen.send(client, 0, o, time.Time{})
		}
		if vt >= nextSync {
			synced := time.Now()
			var took time.Duration
			for _, l := range d.leaves {
				took += d.syncHistory(l.mgr)
			}
			if d.tr != nil {
				d.tr.iteration(time.Since(synced), took)
			}
			nextSync += time.Second
		}
		if err != nil {
			gen.stats.fail(fmt.Errorf("cycle: %w", err))
			gen.chk.pool.Put(buf)
			continue
		}
		gen.stats.ok("scrape", ms(done.Sub(send)))
		ages = append(ages, ms(done.Sub(stepped)))
		if n%10 == 0 {
			gen.chk.submit(checkJob{kind: jobHeadMetrics, body: buf, recv: done, measured: true})
		} else {
			gen.chk.pool.Put(buf)
		}
	}
	return ages
}

// drillEvery is how many federated cycles go by per energy drill-down.
const drillEvery = 4

// checkCanary finds the canary's samples_total in a head body and
// checks it equals want.
func checkCanary(body, needle []byte, want uint64) error {
	i := bytes.Index(body, needle)
	if i < 0 {
		return fmt.Errorf("head /metrics lacks %s", bytes.TrimSpace(needle))
	}
	rest := body[i+len(needle):]
	if j := bytes.IndexByte(rest, '\n'); j >= 0 {
		rest = rest[:j]
	}
	got, err := strconv.ParseFloat(string(rest), 64)
	if err != nil {
		return fmt.Errorf("head /metrics: canary value %q: %w", rest, err)
	}
	if uint64(got) != want {
		return fmt.Errorf("head /metrics: canary samples_total %v, want %d", got, want)
	}
	return nil
}

// churn adds and removes stations on the first leaf, one operation every
// half second, so each runs about once a second.
func churn(p *plan, d *deployment, stats *loadStats, seed uint64, deadline time.Time) {
	rng := rand.New(rand.NewPCG(seed, 0x636875))
	l := d.leaves[0]
	fx := d.fixtures[p.churnBase]
	tick := time.NewTicker(500 * time.Millisecond)
	defer tick.Stop()
	end := time.NewTimer(time.Until(deadline))
	defer end.Stop()
	var live []string
	for k := 0; ; k++ {
		select {
		case <-tick.C:
		case <-end.C:
			return
		}
		if k%2 == 0 {
			name := fmt.Sprintf("%s%d", churnPrefix, k)
			src := buildSource(stationSpec{name: name, kindspec: p.churnBase, base: p.churnBase,
				off: rng.IntN(1 << 30)}, fx, d.tr)
			began := time.Now()
			_, err := l.mgr.Add(name, p.churnBase, src)
			took := time.Since(began)
			if err != nil {
				src.Close()
				stats.fail(fmt.Errorf("churn add: %w", err))
				continue
			}
			stats.ok("", 0)
			live = append(live, name)
			if d.tr != nil {
				d.tr.churn(true, took)
			}
		} else if len(live) > 0 {
			began := time.Now()
			err := l.mgr.Remove(live[0])
			took := time.Since(began)
			live = live[1:]
			if err != nil {
				stats.fail(fmt.Errorf("churn remove: %w", err))
				continue
			}
			stats.ok("", 0)
			if d.tr != nil {
				d.tr.churn(false, took)
			}
		}
	}
}

// sampleLag snapshots every leaf each 50 ms and records how old each
// station's published clock is.
func sampleLag(d *deployment, clk *clock, deadline time.Time) {
	var snap []fleet.Status
	var clocks, lags []float64
	for time.Now().Before(deadline) {
		time.Sleep(50 * time.Millisecond)
		for _, l := range d.leaves {
			snap = l.mgr.SnapshotInto(snap[:0])
			at := time.Now()
			clocks = clocks[:0]
			for _, st := range snap {
				if !strings.HasPrefix(st.Name, churnPrefix) {
					clocks = append(clocks, st.Now.Seconds())
				}
			}
			lags = clk.ages(lags[:0], clocks, at, 1, 0)
			d.tr.lag(lags)
		}
	}
}

// energyTolerance is the relative agreement between a station's history
// energy and its source's own integral that the repository's tests pin.
const energyTolerance = 0.01

// checkEnergyConservation checks, for every unfaulted planned station,
// that EnergyWindow over its whole life agrees with its Joules.
func checkEnergyConservation(d *deployment, stats *loadStats) {
	for _, l := range d.leaves {
		for _, spec := range l.plan.stations {
			if spec.faulted {
				continue
			}
			dev := l.mgr.Device(spec.name)
			if dev == nil {
				stats.fail(fmt.Errorf("energy check: station %s/%s gone", l.plan.name, spec.name))
				continue
			}
			st := dev.Status()
			got := dev.EnergyWindow(0, st.Now)
			if math.Abs(got-st.Joules) > energyTolerance*math.Abs(st.Joules) {
				stats.fail(fmt.Errorf("energy check: %s/%s history %.6g J, source %.6g J",
					l.plan.name, spec.name, got, st.Joules))
				continue
			}
			stats.ok("", 0)
		}
	}
}
