package fleet

// Tests for the station health watchdog: each detector (gap, flatline,
// spike quarantine) driving Status.Health through its episode and back,
// the restart-with-backoff path from first fault to park, marker survival
// through a dropout fault plus fleet downsampling, the zero-allocation
// ingest contract with fault stages in the chain, and the faulted churn
// soak the CI job runs under -race.

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/source"
)

// waveSource is the watchdog tests' controllable backend: a 20 kHz
// three-channel source whose total ramps 60..63.9 W (so healthy blocks are
// never flat), with switches for the fault modes the watchdog detects.
// Mutate the switches only between StepAll calls — the tests drive the
// manager synchronously, never via Start.
type waveSource struct {
	now   time.Duration
	last  time.Duration
	joule float64
	count int

	mute      bool // deliver nothing; the muted span's samples are lost
	flat      bool // emit a constant 60 W — a stuck register
	failReads int  // reads left to fail with an error; -1 = fail forever
	glitchAt  int  // 1-based ordinal emitted at 10x power; 0 = never
}

func (s *waveSource) Meta() source.Meta {
	return source.Meta{Backend: "wave", RateHz: 20000,
		Channels: []string{"a", "b", "c"}}
}
func (s *waveSource) Now() time.Duration { return s.now }

func (s *waveSource) ReadInto(d time.Duration, b *source.Batch) error {
	b.Reset(3)
	target := s.now + d
	s.now = target
	if s.failReads != 0 {
		if s.failReads > 0 {
			s.failReads--
		}
		s.last = target // the failed span's samples are gone, not queued
		return errors.New("wave: injected read failure")
	}
	if s.mute {
		s.last = target
		return nil
	}
	if target <= s.last {
		return nil
	}
	k := int((target - s.last) / stubPeriod)
	b.Extend(k)
	t := s.last
	for i := 0; i < k; i++ {
		t += stubPeriod
		s.count++
		w := 60.0
		if !s.flat {
			w += float64(s.count%40) * 0.1
		}
		if s.count == s.glitchAt {
			w *= 10
		}
		b.Time[i] = t
		b.Total[i] = w
		c := b.Chans[i*3 : i*3+3]
		c[0], c[1], c[2] = w/6, w/3, w/2
		s.joule += w * stubPeriod.Seconds()
	}
	s.last = t
	return nil
}

func (s *waveSource) Joules() float64 { return s.joule }
func (s *waveSource) Resyncs() int    { return 0 }
func (s *waveSource) Close()          {}

// restartSource adds the source.Restarter surface: the watchdog's
// backoff/restart/park path only engages for sources advertising it.
type restartSource struct {
	waveSource
	restartErr error
	restarted  int
}

func (s *restartSource) Restart() error {
	s.restarted++
	if s.restartErr != nil {
		return s.restartErr
	}
	s.failReads = 0 // a successful restart heals the backend
	return nil
}

// healthEvents returns the station's watchdog event reasons, in order.
func healthEvents(m *Manager, station string, typ string) []string {
	var out []string
	for _, ev := range m.Events().Tail(0) {
		if ev.Station == station && ev.Type == typ {
			out = append(out, ev.Reason)
		}
	}
	return out
}

// TestHealthFlatlineAndRecovery: a stuck register serving fake liveness —
// samples at rate, bit-identical values — must flatline within the
// flatlineWindow, and resume healthy once real variation returns.
func TestHealthFlatlineAndRecovery(t *testing.T) {
	src := &waveSource{flat: true}
	m := NewManager(Config{})
	d, err := m.Add("dev0", "wave", src)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)

	// flatlineWindow 50 ms = 50 identical block-20 points.
	m.StepAll(150 * time.Millisecond)
	st := d.Status()
	if st.Health != HealthFlatlined {
		t.Fatalf("health = %q after 150ms of constant values, want %q", st.Health, HealthFlatlined)
	}
	if st.Flatlines != 1 {
		t.Errorf("flatlines = %d, want 1 episode", st.Flatlines)
	}

	src.flat = false
	m.StepAll(100 * time.Millisecond)
	st = d.Status()
	if st.Health != HealthHealthy {
		t.Errorf("health = %q after variation returned, want %q", st.Health, HealthHealthy)
	}
	if st.Flatlines != 1 {
		t.Errorf("flatlines = %d after recovery, want still 1", st.Flatlines)
	}
	if got := healthEvents(m, "dev0", obs.EventHealth); len(got) != 2 ||
		got[0] != HealthFlatlined || got[1] != HealthHealthy {
		t.Errorf("health events = %v, want [flatlined healthy]", got)
	}
}

// TestHealthGapDegradedAndRecovery: a delivery gap longer than the
// two-block threshold opens a gap episode and degrades the station; two
// clean delivery windows plus the recovery hold bring it back.
func TestHealthGapDegradedAndRecovery(t *testing.T) {
	src := &waveSource{}
	m := NewManager(Config{})
	d, err := m.Add("dev0", "wave", src)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)

	m.StepAll(100 * time.Millisecond)
	if st := d.Status(); st.Health != HealthHealthy || st.Gaps != 0 {
		t.Fatalf("baseline health = %q gaps = %d, want healthy, 0", st.Health, st.Gaps)
	}

	// 20 ms of silence: 400 missing samples against a 42-sample threshold,
	// far below the 250 ms stale cutoff — a gap, not an outage.
	src.mute = true
	m.StepAll(20 * time.Millisecond)
	st := d.Status()
	if st.Health != HealthDegraded {
		t.Fatalf("health = %q during a 20ms gap, want %q", st.Health, HealthDegraded)
	}
	if st.Gaps != 1 {
		t.Errorf("gaps = %d, want 1 episode", st.Gaps)
	}

	src.mute = false
	m.StepAll(300 * time.Millisecond)
	st = d.Status()
	if st.Health != HealthHealthy {
		t.Errorf("health = %q after delivery resumed, want %q", st.Health, HealthHealthy)
	}
	if st.Gaps != 1 {
		t.Errorf("gaps = %d after one episode, want 1", st.Gaps)
	}
	if got := healthEvents(m, "dev0", obs.EventHealth); len(got) != 2 ||
		got[0] != HealthDegraded || got[1] != HealthHealthy {
		t.Errorf("health events = %v, want [degraded healthy]", got)
	}
}

// TestHealthStaleOnSilence: silence past the 250 ms stale deadline marks
// the station stale — its newest point is history, not telemetry — and a
// non-restartable source just waits for samples to resume.
func TestHealthStaleOnSilence(t *testing.T) {
	src := &waveSource{}
	m := NewManager(Config{})
	d, err := m.Add("dev0", "wave", src)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)

	m.StepAll(100 * time.Millisecond)
	src.mute = true
	m.StepAll(200 * time.Millisecond)
	if st := d.Status(); st.Health == HealthStale {
		t.Fatalf("health = %q after 200ms silence, before the 250ms deadline", st.Health)
	}
	m.StepAll(100 * time.Millisecond)
	if st := d.Status(); st.Health != HealthStale {
		t.Fatalf("health = %q after 300ms silence, want %q", st.Health, HealthStale)
	}
	src.mute = false
	m.StepAll(300 * time.Millisecond)
	if st := d.Status(); st.Health != HealthHealthy {
		t.Errorf("health = %q after samples resumed, want %q", st.Health, HealthHealthy)
	}
}

// TestRestartBackoffAndRecovery walks the full fault cycle of a
// restartable source: read error → backoff window (stale, source not
// read) → restart attempt → first delivering read resets the budget and
// logs recovery.
func TestRestartBackoffAndRecovery(t *testing.T) {
	src := &restartSource{}
	m := NewManager(Config{})
	d, err := m.Add("dev0", "wave", src)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)

	m.StepAll(50 * time.Millisecond)
	src.failReads = 1
	m.StepAll(5 * time.Millisecond) // the erroring read: fault, backoff 4 steps
	if st := d.Status(); st.Health != HealthStale {
		t.Fatalf("health = %q in backoff, want %q", st.Health, HealthStale)
	}
	// Four steps drain the backoff window and attempt the restart; the
	// fifth is the first delivering read — the actual recovery.
	m.StepAll(25 * time.Millisecond)
	if src.restarted != 1 {
		t.Fatalf("source restarted %d times, want 1", src.restarted)
	}
	if st := d.Status(); st.Restarts != 1 {
		t.Errorf("status restarts = %d, want 1", st.Restarts)
	}
	if got := healthEvents(m, "dev0", obs.EventRestart); len(got) != 3 ||
		got[0] != "backoff" || got[1] != "restart" || got[2] != "recovered" {
		t.Fatalf("restart events = %v, want [backoff restart recovered]", got)
	}
	m.StepAll(300 * time.Millisecond)
	if st := d.Status(); st.Health != HealthHealthy {
		t.Errorf("health = %q after recovery, want %q", st.Health, HealthHealthy)
	}
}

// TestRestartParkedAfterBudget: a dead backend burns the whole bounded
// restart budget — doubling backoffs, each restart failing — and is then
// parked: permanently stale, never read or retried again.
func TestRestartParkedAfterBudget(t *testing.T) {
	src := &restartSource{
		waveSource: waveSource{failReads: -1},
		restartErr: errors.New("wave: backend is gone"),
	}
	m := NewManager(Config{})
	d, err := m.Add("dev0", "wave", src)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)

	// Budget 6, backoffs 4+8+16+32+64+128 = 252 steps: 300 steps reach
	// the park decision with margin.
	for i := 0; i < 300; i++ {
		m.StepAll(5 * time.Millisecond)
	}
	st := d.Status()
	if st.Health != HealthStale {
		t.Errorf("parked health = %q, want %q", st.Health, HealthStale)
	}
	if st.Restarts != 6 || src.restarted != 6 {
		t.Errorf("restart attempts = %d (source saw %d), want the budget of 6",
			st.Restarts, src.restarted)
	}
	events := healthEvents(m, "dev0", obs.EventRestart)
	if len(events) == 0 || events[len(events)-1] != "parked" {
		t.Fatalf("restart events = %v, want trailing \"parked\"", events)
	}
	// Parked is forever: more time brings no further reads or attempts.
	m.StepAll(time.Second)
	if again := healthEvents(m, "dev0", obs.EventRestart); len(again) != len(events) {
		t.Errorf("parked station kept emitting restart events: %v", again[len(events):])
	}
	if src.restarted != 6 {
		t.Errorf("parked station restarted its source again: %d", src.restarted)
	}
}

// TestSpikeQuarantine: an isolated 10x glitch sample is quarantined
// before the fold — counted, degrading the station, but never reaching
// the ring's block means or the published watts.
func TestSpikeQuarantine(t *testing.T) {
	// Sample 1550 is the 50th of its 100-sample step: mid-batch, so both
	// neighbours exist (a batch-final glitch passes by design).
	src := &waveSource{glitchAt: 1550}
	m := NewManager(Config{})
	d, err := m.Add("dev0", "wave", src)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)

	m.StepAll(80 * time.Millisecond)
	st := d.Status()
	if st.SpikesQuarantined != 1 {
		t.Fatalf("spikes quarantined = %d, want 1", st.SpikesQuarantined)
	}
	if st.Health != HealthDegraded {
		t.Errorf("health = %q right after a quarantined spike, want %q",
			st.Health, HealthDegraded)
	}
	// The wave never exceeds 64 W; a ~630 W glitch in a 20-sample block
	// would lift that block's mean by ~28 W.
	for _, p := range d.Ring().Snapshot(0) {
		if p.Total > 70 {
			t.Fatalf("glitch reached the ring: block mean %v W (wave ≤ 64 W)", p.Total)
		}
	}
	m.StepAll(200 * time.Millisecond)
	st = d.Status()
	if st.Health != HealthHealthy {
		t.Errorf("health = %q after the spike gate cooled, want %q", st.Health, HealthHealthy)
	}
	if st.SpikesQuarantined != 1 {
		t.Errorf("spikes quarantined = %d after recovery, want still 1", st.SpikesQuarantined)
	}
}

// TestMarkerSurvivesDropoutAndDownsampling is the fault-path marker
// regression: a marked sample that survives a dropout stage must land in
// the station's marker counter and the right ring point; one that is
// dropped must vanish without corrupting any other point. The test is
// self-consistent — a direct read of an identically seeded chain decides
// which case this seed produces and where the marker lands.
func TestMarkerSurvivesDropoutAndDownsampling(t *testing.T) {
	const markAt, seed = 37, 3
	mkChain := func() source.Source {
		return pipeline.Chain(&stubSource{markAt: markAt},
			pipeline.Dropout(0.5, time.Millisecond, seed))
	}

	// Direct run: count delivered samples and find the marker's position
	// in the compacted stream.
	direct := mkChain()
	var b source.Batch
	delivered, survived, markIdx := 0, 0, -1
	for i := 0; i < 4; i++ {
		direct.ReadInto(5*time.Millisecond, &b)
		for _, mk := range b.Marks {
			survived++
			markIdx = delivered + mk
		}
		delivered += b.Len()
	}
	if delivered == 0 {
		t.Fatal("dropout p=0.5 delivered nothing over 20ms — seed pathological")
	}

	// Fleet run of the identically seeded chain, same 5 ms slicing.
	m := NewManager(Config{})
	d, err := m.Add("dev0", "wave|dropout", mkChain())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	m.StepAll(20 * time.Millisecond)

	st := d.Status()
	if st.Samples != uint64(delivered) {
		t.Errorf("fleet ingested %d samples, direct run delivered %d", st.Samples, delivered)
	}
	if st.Marks != uint64(survived) {
		t.Errorf("status marks = %d, direct run delivered %d markers", st.Marks, survived)
	}
	pts := d.Ring().Snapshot(0)
	total := 0
	for _, p := range pts {
		total += p.Marks
	}
	if total != survived {
		t.Errorf("ring holds %d marks, want %d", total, survived)
	}
	if survived > 0 {
		// Block-20 downsampling: the compacted index decides the point.
		want := markIdx / 20
		if want >= len(pts) || pts[want].Marks != 1 {
			t.Errorf("marker at compacted index %d not in ring point %d (%d points)",
				markIdx, want, len(pts))
		}
	}
}

// TestFaultedIngestSteadyStateZeroAlloc is the acceptance zero-alloc
// guard with fault stages in the ingest chain: dropout compaction, spike
// glitches and timestamp jitter over the 20 kHz stub still cost no
// allocations per step once warm — health detection included.
func TestFaultedIngestSteadyStateZeroAlloc(t *testing.T) {
	src := pipeline.Chain(&stubSource{},
		pipeline.Dropout(0.1, time.Millisecond, 21),
		pipeline.Spike(0.001, 5, 22),
		pipeline.Jitter(2*time.Microsecond, 23))
	m := NewManager(Config{})
	if _, err := m.Add("dev0", "stub|faulted", src); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	m.StepAll(300 * time.Millisecond) // warm stages, ring, and health state
	allocs := testing.AllocsPerRun(100, func() {
		m.StepAll(5 * time.Millisecond)
	})
	if allocs != 0 {
		t.Errorf("steady-state faulted ingest allocates %v per step, want 0", allocs)
	}
}

// TestChurnFaulted is the faulted variant of TestChurn and the CI soak's
// in-repo body: every station carries fault stages, churners cycle
// faulted stations through the full lifecycle while a stepper advances
// the fleet, snapshotters verify the health counters only ever grow, and
// the event ring must account exactly — zero drops — for every lifecycle
// event despite the extra health/restart traffic.
func TestChurnFaulted(t *testing.T) {
	faulted := func(seed uint64) source.Source {
		return pipeline.Chain(&stubSource{},
			pipeline.Dropout(0.2, time.Millisecond, seed),
			pipeline.Spike(0.001, 5, seed+1))
	}
	const base = 4
	m := NewManager(Config{Slice: time.Millisecond, EventCap: 1 << 16})
	for i := 0; i < base; i++ {
		if _, err := m.Add(fmt.Sprintf("base%d", i), "stub|faulted", faulted(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(m.Close)
	m.Start()
	defer m.Stop()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var churns atomic.Uint64

	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				name := fmt.Sprintf("churn%d", g)
				d, err := m.Add(name, "stub|faulted", faulted(uint64(100+g)))
				if err != nil {
					t.Errorf("churn Add(%s): %v", name, err)
					return
				}
				runtime.Gosched()
				if err := m.Remove(name); err != nil {
					t.Errorf("churn Remove(%s): %v", name, err)
					return
				}
				if st := d.Status(); st.State != "closed" {
					t.Errorf("churn %s: state %q after Remove, want closed", name, st.State)
					return
				}
				churns.Add(1)
			}
		}(g)
	}
	// Snapshotters double as the monotonicity check: a base station's
	// episode counters never decrease, and its health string always parses
	// to a known severity rank.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			prev := make(map[string]Status, base)
			var snap []Status
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap = m.SnapshotInto(snap[:0])
				for i := range snap {
					st := &snap[i]
					if !strings.HasPrefix(st.Name, "base") {
						continue
					}
					if HealthLevel(st.Health) == int(healthStale) && st.Health != HealthStale {
						t.Errorf("%s: unknown health %q published", st.Name, st.Health)
						return
					}
					if p, ok := prev[st.Name]; ok {
						if st.Gaps < p.Gaps || st.Flatlines < p.Flatlines ||
							st.SpikesQuarantined < p.SpikesQuarantined || st.Restarts < p.Restarts {
							t.Errorf("%s: health counters went backwards: %+v then %+v", st.Name, p, *st)
							return
						}
					}
					prev[st.Name] = *st
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				m.StepAll(100 * time.Microsecond)
			}
		}
	}()

	time.Sleep(250 * time.Millisecond)
	close(stop)
	wg.Wait()

	if churns.Load() == 0 {
		t.Fatal("no churn cycles completed")
	}
	if got := m.Size(); got != base {
		t.Errorf("fleet size after churn = %d, want %d", got, base)
	}
	if got := m.Events().Dropped(); got != 0 {
		t.Fatalf("event ring dropped %d events; raise EventCap, accounting is void", got)
	}
	var adopts, retires, closes uint64
	for _, ev := range m.Events().Tail(0) {
		if !strings.HasPrefix(ev.Station, "churn") {
			continue
		}
		switch ev.Type {
		case obs.EventAdopt:
			adopts++
		case obs.EventRetire:
			retires++
		case obs.EventClose:
			closes++
		}
	}
	if want := churns.Load(); adopts != want || retires != want || closes != want {
		t.Errorf("churn events adopt/retire/close = %d/%d/%d, want %d each",
			adopts, retires, closes, want)
	}
	// The faulted fleet must actually have exercised the watchdog: with
	// p=0.2 dropout on every station, gap episodes are a certainty.
	var gaps uint64
	for _, st := range m.Snapshot() {
		gaps += st.Gaps
	}
	if gaps == 0 {
		t.Error("no gap episodes across a faulted churn run — the watchdog slept through it")
	}
}

// TestHealthyRAPLNeverFlatlines: over ten virtual seconds the RAPL
// meters of psd's default fleet (cpu0 sits at spec index 5, which @5
// pins, so these are the same stations) must never flatline: their
// counter-delta readings carry the CPU model's ripple through steady
// utilisation plateaus longer than flatMinSamples. A stuck RAPL station
// beside them must still flatline: the ripple hides no real fault.
func TestHealthyRAPLNeverFlatlines(t *testing.T) {
	const spec = "cpu0=rapl@5,cpu0lim=rapl@5|ratelimit:100,cpustuck=rapl@5|stuck:1:1s"
	for seed := uint64(1); seed <= 4; seed++ {
		m, err := FromSpec(spec, seed, Config{})
		if err != nil {
			t.Fatal(err)
		}
		m.StepAll(10 * time.Second)
		for _, st := range m.Snapshot() {
			switch {
			case st.Name == "cpustuck" && st.Flatlines == 0:
				t.Errorf("seed %d: stuck RAPL station never flatlined", seed)
			case st.Name != "cpustuck" && st.Flatlines != 0:
				t.Errorf("seed %d: healthy station %s flatlined %d times",
					seed, st.Name, st.Flatlines)
			}
		}
		m.Close()
	}
}
