package fleet

// Tests for due-time stepping: a station whose sample period is longer
// than a quantum is visited only when something is due for it, and must
// then publish exactly what a station visited every quantum publishes —
// samples, joules, ring points, energy windows, health transitions,
// restarts and its clock — at every quantum.

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/simsetup"
	"repro/internal/source"
)

// probe wraps a station's source, counting ReadInto calls, and can wedge
// it: muted, reads deliver nothing (the samples are lost); failing, reads
// return an error.
type probe struct {
	source.Source
	reads int
	mute  bool
	fail  bool
}

func (p *probe) ReadInto(d time.Duration, b *source.Batch) error {
	p.reads++
	err := p.Source.ReadInto(d, b)
	if p.mute || p.fail {
		b.Reset(b.Stride())
	}
	if p.fail {
		return errors.New("probe: injected read failure")
	}
	return err
}

// restartProbe is a restartable probe: Restart heals a failing source
// unless restartErr is set.
type restartProbe struct {
	*probe
	restartErr error
}

func (p restartProbe) Restart() error {
	if p.restartErr != nil {
		return p.restartErr
	}
	p.fail = false
	return nil
}

// station builds a probe over kindspec with a fixed seed.
func station(t *testing.T, kindspec string) *probe {
	t.Helper()
	src, err := simsetup.BuildStation(kindspec, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	return &probe{Source: src}
}

// adopt adds src as station "s" to a fresh manager. With everyQuantum the
// station is visited every quantum whatever its rate: the reference that
// due-time stepping must match.
func adopt(t *testing.T, src source.Source, everyQuantum bool) (*Manager, *Device) {
	t.Helper()
	m := NewManager(Config{})
	t.Cleanup(m.Close)
	d, err := m.Add("s", "probe", src)
	if err != nil {
		t.Fatal(err)
	}
	if everyQuantum {
		d.period = 0
		d.due = d.nextDue(d.readAt)
	}
	return m, d
}

// twin steps a due-time station and its every-quantum reference through
// quanta 5 ms quanta, calling at(k, p) on both sources before quantum k,
// and fails at the first quantum after which their published statuses
// differ. Joules is the backend's counter as of the station's last read,
// and a backend may count between the samples it delivers (a rate-limited
// meter), so it is compared at the quanta the due-time station was read.
// So is Now when drifts is set: between reads a skewed station holds its
// last read's time, while the reference reads its source's every quantum.
// It returns the two devices.
func twin(t *testing.T, mk func() source.Source, quanta int, drifts bool, at func(k int, p *probe)) (due, ref *Device) {
	t.Helper()
	dm, due := adopt(t, mk(), false)
	rm, ref := adopt(t, mk(), true)
	for k := 0; k < quanta; k++ {
		if at != nil {
			at(k, probeOf(due))
			at(k, probeOf(ref))
		}
		reads := probeOf(due).reads
		dm.StepAll(5 * time.Millisecond)
		rm.StepAll(5 * time.Millisecond)
		a, b := due.Status(), ref.Status()
		if probeOf(due).reads == reads {
			a.Joules = b.Joules
			if drifts {
				a.Now = b.Now
			}
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("after quantum %d (%v): due-time status\n%+v\nevery-quantum status\n%+v",
				k, time.Duration(k+1)*5*time.Millisecond, a, b)
		}
	}
	for _, typ := range []string{obs.EventHealth, obs.EventRestart} {
		if a, b := healthEvents(dm, "s", typ), healthEvents(rm, "s", typ); !reflect.DeepEqual(a, b) {
			t.Errorf("%s events: due-time %v, every-quantum %v", typ, a, b)
		}
	}
	return due, ref
}

func probeOf(d *Device) *probe {
	switch p := d.src.(type) {
	case *probe:
		return p
	case restartProbe:
		return p.probe
	}
	panic("not a probe")
}

// TestDueSlowMeterReadsOnlyWhenDue: a 10 Hz meter stepped for a second in
// 5 ms quanta is read once per sample, not 200 times, and its samples,
// joules, ring points and energy windows match a station read every
// quantum. Until its first sample fixes its phase a new station is read
// every quantum, so the count starts there.
func TestDueSlowMeterReadsOnlyWhenDue(t *testing.T) {
	for _, kind := range []string{"nvml", "jetson-ina", "nvml|ratelimit:5", "nvml|calib:0.98:0.25"} {
		t.Run(kind, func(t *testing.T) {
			var primed int // reads up to and including the first sample
			due, ref := twin(t, func() source.Source { return station(t, kind) }, 220, false,
				func(k int, p *probe) {
					if k == 20 { // after the quantum holding the first sample
						primed = p.reads
					}
				})
			if n := probeOf(due).reads - primed; n > 11 {
				t.Errorf("due-time station made %d ReadInto calls in the 1s after its first sample, want at most 11", n)
			}
			if n := probeOf(ref).reads; n != 220 {
				t.Errorf("every-quantum station made %d ReadInto calls, want 220", n)
			}
			st := due.Status()
			if st.Samples == 0 {
				t.Fatal("no samples delivered")
			}
			if a, b := due.Ring().Snapshot(0), ref.Ring().Snapshot(0); !reflect.DeepEqual(a, b) {
				t.Errorf("ring points differ:\n%v\n%v", a, b)
			}
			for _, w := range [][2]time.Duration{{0, st.Now}, {150 * time.Millisecond, 730 * time.Millisecond}} {
				if a, b := due.EnergyWindow(w[0], w[1]), ref.EnergyWindow(w[0], w[1]); a != b {
					t.Errorf("EnergyWindow(%v, %v) = %v J, every-quantum %v J", w[0], w[1], a, b)
				}
			}
		})
	}
}

// TestDueSilentSlowMeterGoesStale: a slow meter that stops delivering —
// dark dropout windows, a wedged source, an erroring restartable source
// whose restarts fail until it is parked, and one whose restart heals it —
// goes stale within staleAfter plus one quantum of its last delivery, and
// backs off, restarts and parks at the same virtual times as a station
// visited every quantum.
func TestDueSilentSlowMeterGoesStale(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func() source.Source
		at   func(k int, p *probe)
	}{
		{"dropout", func() source.Source { return station(t, "nvml|dropout:0.5:600ms") }, nil},
		{"wedged", func() source.Source { return station(t, "jetson-ina") },
			func(k int, p *probe) { p.mute = k >= 100 && k < 400 }},
		{"erroring-parked", func() source.Source {
			return restartProbe{probe: station(t, "nvml"), restartErr: errors.New("gone")}
		}, func(k int, p *probe) { p.fail = p.fail || k == 99 }},
		{"erroring-healed", func() source.Source { return restartProbe{probe: station(t, "nvml")} },
			func(k int, p *probe) { p.fail = p.fail || k == 99 }},
		{"silent-restartable", func() source.Source { return restartProbe{probe: station(t, "nvml")} },
			func(k int, p *probe) { p.mute = k >= 100 && k < 300 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var delivered time.Duration // quantum end of the last delivering quantum
			var samples uint64
			stale := false
			twin(t, tc.mk, 2000, false, func(k int, p *probe) {
				if tc.at != nil {
					tc.at(k, p)
				}
			})
			// Replay the due-time station alone to check the deadline at
			// every quantum.
			m, d := adopt(t, tc.mk(), false)
			for k := 0; k < 2000; k++ {
				if tc.at != nil {
					tc.at(k, probeOf(d))
				}
				m.StepAll(5 * time.Millisecond)
				end := time.Duration(k+1) * 5 * time.Millisecond
				st := d.Status()
				if st.Samples > samples {
					samples, delivered = st.Samples, end
				}
				if st.Health == HealthStale {
					stale = true
				} else if samples > 0 && end-delivered >= staleAfter+5*time.Millisecond {
					t.Fatalf("at %v: health %q, %v after the last delivery", end, st.Health, end-delivered)
				}
			}
			if !stale {
				t.Error("the station never went stale")
			}
		})
	}
}

// TestDueHealthHoldSameVirtualTime: the upgrade hold out of stale lasts
// healthRecover of virtual time from the first delivering read, for a
// 10 Hz meter visited only when due as for a 20 kHz rig visited every
// quantum.
func TestDueHealthHoldSameVirtualTime(t *testing.T) {
	for _, kind := range []string{"nvml", "synth"} {
		t.Run(kind, func(t *testing.T) {
			p := station(t, kind)
			m, d := adopt(t, p, false)
			var back, upgraded time.Duration
			samples := uint64(0)
			for k := 0; k < 400 && upgraded == 0; k++ {
				p.mute = k >= 60 && k < 160
				m.StepAll(5 * time.Millisecond)
				end := time.Duration(k+1) * 5 * time.Millisecond
				st := d.Status()
				if k >= 160 && back == 0 && st.Samples > samples {
					back = end
				}
				samples = st.Samples
				if back != 0 && st.Health != HealthStale {
					upgraded = end
				}
			}
			if back == 0 || upgraded == 0 {
				t.Fatalf("no recovery from stale: delivery resumed at %v, upgrade at %v", back, upgraded)
			}
			if hold := upgraded - back; hold != healthRecover {
				t.Errorf("upgrade out of stale held %v after delivery resumed, want %v", hold, healthRecover)
			}
		})
	}
}

// TestDueSkippedStationUntouched: between samples a slow station is not
// visited at all — stepping proceeds while the test holds its ingest
// lock, its source sees no call — yet its published clock keeps time.
func TestDueSkippedStationUntouched(t *testing.T) {
	p := station(t, "nvml")
	m, d := adopt(t, p, false)
	m.StepAll(100 * time.Millisecond) // the first sample is read at 100 ms
	reads := p.reads
	d.mu.Lock()
	done := make(chan struct{})
	go func() {
		defer close(done)
		m.StepAll(95 * time.Millisecond)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("stepping a station with nothing due waited for its lock")
	}
	d.mu.Unlock()
	if p.reads != reads {
		t.Errorf("%d source calls between samples, want none", p.reads-reads)
	}
	if now := d.Status().Now; now != 195*time.Millisecond {
		t.Errorf("published clock %v between samples, want 195ms", now)
	}
	m.StepAll(5 * time.Millisecond)
	if p.reads != reads+1 {
		t.Errorf("%d source calls for the next sample, want 1", p.reads-reads)
	}
}

// TestDueIdleShardNotHandedOff: on the parallel path a quantum in which
// no station is due hands no shard to its worker.
func TestDueIdleShardNotHandedOff(t *testing.T) {
	m := NewManager(Config{})
	t.Cleanup(m.Close)
	for i := 0; i < 2*stepParallelMin; i++ {
		src, err := simsetup.BuildStation("nvml", 5, i)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Add(fmt.Sprintf("m%03d", i), "nvml", src); err != nil {
			t.Fatal(err)
		}
	}
	m.StepAll(100 * time.Millisecond) // every meter polls at 100 ms
	before := m.ShardStepHist().Count()
	m.StepAll(95 * time.Millisecond)
	if n := m.ShardStepHist().Count() - before; n != 0 {
		t.Errorf("%d shard quanta stepped with nothing due, want 0", n)
	}
	m.StepAll(5 * time.Millisecond)
	if n := m.ShardStepHist().Count() - before; n == 0 {
		t.Error("no shard stepped when every meter was due")
	}
	for _, st := range m.Snapshot() {
		if st.Samples != 2 || st.Now != 200*time.Millisecond {
			t.Fatalf("%s: %d samples at %v, want 2 at 200ms", st.Name, st.Samples, st.Now)
		}
	}
}

// TestDueMatchesEveryQuantum runs slow stations behind every kind of
// pipeline stage, fault stages included, for ten virtual seconds: the
// due-time station publishes what the every-quantum one does at every
// quantum, and reads its source far less often.
func TestDueMatchesEveryQuantum(t *testing.T) {
	for _, kind := range []string{
		"nvml|jitter:10ms", "nvml|skew:200", "nvml|skew:-300000", "nvml|resample:2",
		"nvml|spike:0.05:8", "jetson-ina|stuck:0.3:1s", "nvml|smooth:300ms",
		"rapl|ratelimit:100", "jetson-ina|dropout:0.3:300ms", "amdsmi|ratelimit:50|calib:1.1",
		"nvml|ratelimit:1", "nvml|resample:0.5",
	} {
		t.Run(kind, func(t *testing.T) {
			due, ref := twin(t, func() source.Source { return station(t, kind) }, 2000,
				strings.Contains(kind, "skew"), nil)
			if a, b := probeOf(due).reads, probeOf(ref).reads; 2*a > b {
				t.Errorf("due-time station made %d reads, every-quantum %d", a, b)
			}
		})
	}
}

// TestDueClockMonotone: every fleet kind, bare and behind every kind of
// stage, skewed clocks both ways included, publishes a clock that never
// decreases from one quantum to the next.
func TestDueClockMonotone(t *testing.T) {
	stages := []string{"", "|resample:5", "|calib:0.98:0.25", "|ratelimit:5",
		"|smooth:300ms", "|dropout:0.3:250ms", "|stuck:0.3:250ms", "|spike:0.05:8",
		"|skew:200", "|skew:300000", "|skew:-300000", "|jitter:10ms"}
	m := NewManager(Config{})
	t.Cleanup(m.Close)
	for _, kind := range simsetup.FleetKinds() {
		for _, stage := range stages {
			src, err := simsetup.BuildStation(kind+stage, 5, 1)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m.Add(kind+stage, kind+stage, src); err != nil {
				t.Fatal(err)
			}
		}
	}
	last := map[string]time.Duration{}
	var snap []Status
	for k := 0; k < 200; k++ {
		m.StepAll(5 * time.Millisecond)
		snap = m.SnapshotInto(snap[:0])
		for _, st := range snap {
			if st.Now < last[st.Name] {
				t.Errorf("%s: clock went back from %v to %v after quantum %d",
					st.Name, last[st.Name], st.Now, k)
			}
			last[st.Name] = st.Now
		}
	}
}

// TestDueConcurrentStepping races due-time stepping on the parallel path
// against itself, snapshots and churn: two goroutines step the same slow
// fleet, some of it on skewed clocks, while a reader checks that no
// station's clock runs backwards and a churner adds and removes stations.
// Each surviving station ends with every sample delivered at its source's
// clock, which for an unskewed one is the total time stepped.
func TestDueConcurrentStepping(t *testing.T) {
	const n, quanta = 2 * stepParallelMin, 100
	kinds := []string{"nvml", "nvml|skew:-300000", "jetson-ina|skew:-300000", "nvml|skew:300000"}
	m := NewManager(Config{})
	t.Cleanup(m.Close)
	for i := 0; i < n; i++ {
		kind := kinds[i%len(kinds)]
		src, err := simsetup.BuildStation(kind, 5, i)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Add(fmt.Sprintf("m%03d", i), kind, src); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < quanta; k++ {
				m.StepAll(5 * time.Millisecond)
			}
		}()
	}
	var side sync.WaitGroup
	side.Add(2)
	go func() {
		defer side.Done()
		last := map[string]time.Duration{}
		var snap []Status
		for {
			select {
			case <-stop:
				return
			default:
			}
			snap = m.SnapshotInto(snap[:0])
			for _, st := range snap {
				if st.Now < last[st.Name] {
					t.Errorf("%s: clock went back from %v to %v", st.Name, last[st.Name], st.Now)
					return
				}
				last[st.Name] = st.Now
			}
		}
	}()
	go func() {
		defer side.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			src, err := simsetup.BuildStation("jetson-ina", 6, i)
			if err != nil {
				t.Error(err)
				return
			}
			name := fmt.Sprintf("churn%d", i)
			if _, err := m.Add(name, "jetson-ina", src); err != nil {
				t.Error(err)
				return
			}
			runtime.Gosched()
			if err := m.Remove(name); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	side.Wait()
	for _, st := range m.Snapshot() {
		want := 2 * quanta * 5 * time.Millisecond
		if strings.Contains(st.Kind, "skew") {
			want = m.Device(st.Name).src.Now()
		}
		if st.Now != want || st.Samples != 2*quanta/20 {
			t.Errorf("%s: %d samples at %v, want %d at %v",
				st.Name, st.Samples, st.Now, 2*quanta/20, want)
		}
	}
}
