package fleet

// Tests for the dynamic fleet lifecycle: hot add and remove against a
// running manager, the retirement drain contract, marker survival
// through downsampling, and the churn race net that hammers every
// lifecycle entry point at once under -race.

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/history"
	"repro/internal/obs"
)

// waitFor polls cond every millisecond until it holds or the deadline
// passes — wall-clock coordination with an unpaced pacer.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestHotAddWhileRunning: a station Added against a running manager is
// stepped by the running pacer and starts ingesting without a Start call.
func TestHotAddWhileRunning(t *testing.T) {
	m := NewManager(Config{})
	if _, err := m.Add("base0", "stub", &stubSource{}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	m.Start()
	defer m.Stop()

	d, err := m.Add("hot0", "stub", &stubSource{})
	if err != nil {
		t.Fatalf("hot Add: %v", err)
	}
	if got := m.Names(); len(got) != 2 || got[0] != "base0" || got[1] != "hot0" {
		t.Fatalf("Names after hot add = %v", got)
	}
	waitFor(t, 5*time.Second, "hot-added station to ingest", func() bool {
		return d.Status().Samples > 0
	})
	if st := d.Status(); st.State != "started" {
		t.Errorf("hot-added station state = %q, want started", st.State)
	}
	if m.Adopted() != 2 || m.Retired() != 0 {
		t.Errorf("adopted/retired = %d/%d, want 2/0", m.Adopted(), m.Retired())
	}
}

// TestRemoveWhileRunning: Remove stops stepping the station, retires it
// from every public view, and leaves the survivors untouched.
func TestRemoveWhileRunning(t *testing.T) {
	m := NewManager(Config{})
	if _, err := m.Add("keep0", "stub", &stubSource{}); err != nil {
		t.Fatal(err)
	}
	gone, err := m.Add("gone0", "stub", &stubSource{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	m.Start()
	defer m.Stop()
	waitFor(t, 5*time.Second, "both stations to ingest", func() bool {
		snap := m.Snapshot()
		return len(snap) == 2 && snap[0].Samples > 0 && snap[1].Samples > 0
	})

	if err := m.Remove("gone0"); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if m.Device("gone0") != nil {
		t.Error("removed station still resolvable by name")
	}
	if got := m.Names(); len(got) != 1 || got[0] != "keep0" {
		t.Errorf("Names after remove = %v", got)
	}
	if st := gone.Status(); st.State != "closed" {
		t.Errorf("retired station state = %q, want closed", st.State)
	}
	// The retired station is no longer stepped: its telemetry freezes.
	before := gone.Status().Samples
	time.Sleep(20 * time.Millisecond)
	if after := gone.Status().Samples; after != before {
		t.Errorf("retired station advanced: %d -> %d samples", before, after)
	}
	// The survivor keeps running.
	keep := m.Device("keep0").Status().Samples
	waitFor(t, 5*time.Second, "survivor to keep ingesting", func() bool {
		return m.Device("keep0").Status().Samples > keep
	})
	if m.Adopted() != 2 || m.Retired() != 1 {
		t.Errorf("adopted/retired = %d/%d, want 2/1", m.Adopted(), m.Retired())
	}
}

// TestRemoveDrainsFinalBlock pins the drain contract: samples accumulated
// in the in-flight downsample block when retirement begins reach the ring
// and the history series as one final short point before the source is
// released.
func TestRemoveDrainsFinalBlock(t *testing.T) {
	m := NewManager(Config{})
	d, err := m.Add("dev0", "stub", &stubSource{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)

	// 25 samples at 20 kHz: one complete block-20 point plus 5 samples
	// left in the in-flight accumulator.
	m.StepAll(25 * stubPeriod)
	if got := d.Ring().Len(); got != 1 {
		t.Fatalf("ring holds %d points before remove, want 1", got)
	}
	if err := m.Remove("dev0"); err != nil {
		t.Fatal(err)
	}
	if got := d.Ring().Len(); got != 2 {
		t.Fatalf("ring holds %d points after remove, want 2 (drain point)", got)
	}
	snap := d.Ring().Snapshot(0)
	final := snap[len(snap)-1]
	// The stub emits a constant 60 W, so the short block's mean is exact.
	if final.Total != 60 || final.Time != 25*stubPeriod {
		t.Errorf("drain point = %+v, want total 60 at t=%v", final, 25*stubPeriod)
	}
	hist := d.HistoryInto(nil, 0, time.Hour)
	if len(hist) != 2 || hist[1] != (history.Point{Time: 25 * stubPeriod, Watts: 60}) {
		t.Errorf("history after remove = %+v, want 2 points ending at the drain point", hist)
	}
	// Published telemetry reflects the drain before the state flips.
	st := d.Status()
	if st.State != "closed" || st.RingTotal != 2 || st.Samples != 25 {
		t.Errorf("post-drain status: state=%q ringTotal=%d samples=%d, want closed/2/25",
			st.State, st.RingTotal, st.Samples)
	}
}

// TestMarkerSurvivesDownsampling is the marker regression test: a single
// marked sample in a 20 kHz stream must surface in its block's ring
// point, in the device trace, and in the station's marker counter — not
// be averaged away with the other 19 samples of the block.
func TestMarkerSurvivesDownsampling(t *testing.T) {
	m := NewManager(Config{})
	// Mark sample 27: the 2nd block-20 point (samples 21..40) carries it.
	d, err := m.Add("dev0", "stub", &stubSource{markAt: 27})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	m.StepAll(5 * time.Millisecond) // 100 samples, 5 points

	pts := d.Ring().Snapshot(0)
	if len(pts) != 5 {
		t.Fatalf("ring holds %d points, want 5", len(pts))
	}
	for i, p := range pts {
		want := 0
		if i == 1 {
			want = 1
		}
		if p.Marks != want {
			t.Errorf("ring point %d: marks = %d, want %d", i, p.Marks, want)
		}
	}
	tr := d.Trace(0)
	for i, p := range tr.Points {
		want := byte(0)
		if i == 1 {
			want = 'M'
		}
		if p.Marker != want {
			t.Errorf("trace point %d: marker = %q, want %q", i, p.Marker, want)
		}
	}
	if st := d.Status(); st.Marks != 1 {
		t.Errorf("status marks = %d, want 1", st.Marks)
	}
}

// TestChurn is the lifecycle race net: goroutines hammer Add, Remove,
// Snapshot and StepAll against a running manager. Run under
// -race this is the memory-safety check; the final assertions verify no
// station leaked or vanished and the churn counters balance.
func TestChurn(t *testing.T) {
	const base = 4
	// EventCap large enough that no lifecycle event is dropped across the
	// whole churn run, so the post-run event accounting below is exact.
	m := NewManager(Config{Slice: time.Millisecond, EventCap: 1 << 16})
	for i := 0; i < base; i++ {
		if _, err := m.Add(fmt.Sprintf("base%d", i), "stub", &stubSource{}); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(m.Close)
	m.Start()
	defer m.Stop()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var churns atomic.Uint64

	// Churners: each cycles its own private name through hot add,
	// remove and drain — the full lifecycle per iteration.
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
				d, err := m.Add(name, "stub", &stubSource{})
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
	// Snapshotters and name resolvers.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var snap []Status
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap = m.SnapshotInto(snap[:0])
				for i := range snap {
					if snap[i].Pairs != 3 {
						t.Errorf("snapshot %s: pairs = %d", snap[i].Name, snap[i].Pairs)
						return
					}
				}
				if d := m.Device("base0"); d != nil {
					_ = d.Trace(10)
				}
			}
		}()
	}
	// A stepper interleaving synchronous advances with the pacer's.
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
	if a, r := m.Adopted(), m.Retired(); a-r != base {
		t.Errorf("adopted %d - retired %d = %d, want %d", a, r, a-r, base)
	}
	for _, st := range m.Snapshot() {
		if st.Samples == 0 {
			t.Errorf("%s ingested nothing through the churn", st.Name)
		}
		if st.State != "started" {
			t.Errorf("%s state = %q after churn, want started", st.Name, st.State)
		}
	}

	// Event-log accounting: every churn Add produced exactly one adopt
	// event and every churn Remove exactly one retire and one close — no
	// event lost, duplicated, or dropped by the ring.
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
}

// TestLifecycleEvents pins the event sequence one station emits across
// its whole life, and the reason tags that separate a hot Remove from a
// fleet shutdown. Only lifecycle events are compared: an unpaced Start
// may run the constant-power stub long enough to log a health event
// between them, which is the watchdog's business, not the lifecycle's.
func TestLifecycleEvents(t *testing.T) {
	m := NewManager(Config{})
	if _, err := m.Add("dev0", "stub", &stubSource{}); err != nil {
		t.Fatal(err)
	}
	m.Start()
	if err := m.Remove("dev0"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Add("dev1", "stub", &stubSource{}); err != nil {
		t.Fatal(err)
	}
	m.Stop()
	m.Close()

	want := []struct{ typ, station, reason string }{
		{obs.EventAdopt, "dev0", "add"},
		{obs.EventStart, "dev0", ""},
		{obs.EventRetire, "dev0", "remove"},
		{obs.EventClose, "dev0", "remove"},
		{obs.EventAdopt, "dev1", "add"},
		{obs.EventStart, "dev1", ""},
		{obs.EventClose, "dev1", "shutdown"},
	}
	var evs []obs.Event
	for _, ev := range m.Events().Tail(0) {
		switch ev.Type {
		case obs.EventAdopt, obs.EventStart, obs.EventRetire, obs.EventClose:
			evs = append(evs, ev)
		}
	}
	if len(evs) != len(want) {
		t.Fatalf("got %d lifecycle events %+v, want %d", len(evs), evs, len(want))
	}
	var prevSeq uint64
	for i, w := range want {
		ev := evs[i]
		if ev.Type != w.typ || ev.Station != w.station || ev.Reason != w.reason {
			t.Errorf("event %d = {%s %s %q}, want {%s %s %q}",
				i, ev.Type, ev.Station, ev.Reason, w.typ, w.station, w.reason)
		}
		if ev.Kind != "stub" {
			t.Errorf("event %d kind = %q, want stub", i, ev.Kind)
		}
		if ev.Seq <= prevSeq {
			t.Errorf("event %d seq = %d, not after %d", i, ev.Seq, prevSeq)
		}
		prevSeq = ev.Seq
	}
}

// TestStopThenRemoveThenStart covers lifecycle transitions off the happy
// path: removing from a stopped manager must drain without a quantum to
// wait for, and a later Start must only drive the survivors.
func TestStopThenRemoveThenStart(t *testing.T) {
	m := NewManager(Config{})
	if _, err := m.Add("a", "stub", &stubSource{}); err != nil {
		t.Fatal(err)
	}
	b, err := m.Add("b", "stub", &stubSource{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	m.Start()
	waitFor(t, 5*time.Second, "ingest before stop", func() bool {
		return b.Status().Samples > 0
	})
	m.Stop()
	if st := b.Status(); st.State != "adopted" {
		t.Errorf("state after Stop = %q, want adopted", st.State)
	}
	if err := m.Remove("b"); err != nil {
		t.Fatalf("Remove on stopped manager: %v", err)
	}
	if st := b.Status(); st.State != "closed" {
		t.Errorf("state after Remove = %q, want closed", st.State)
	}
	m.Start()
	defer m.Stop()
	a := m.Device("a")
	base := a.Status().Samples
	waitFor(t, 5*time.Second, "survivor to run after restart", func() bool {
		return a.Status().Samples > base
	})
	if got := m.Size(); got != 1 {
		t.Errorf("size after restart = %d, want 1", got)
	}
}

// TestChurnStartStop races Start and Stop against each other, against
// hot Add/Remove and against StepAll. Whatever the interleaving, once
// the last Stop returns no pacer is left stepping and every station
// reads adopted.
func TestChurnStartStop(t *testing.T) {
	m := NewManager(Config{Rate: 4, Slice: time.Millisecond})
	t.Cleanup(m.Close)
	for i := 0; i < 8; i++ {
		if _, err := m.Add(fmt.Sprintf("s%d", i), "tick", &tickSource{}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				m.Start()
				runtime.Gosched()
				m.Stop()
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			name := fmt.Sprintf("hot%d", i)
			if _, err := m.Add(name, "tick", &tickSource{}); err != nil {
				t.Error(err)
				return
			}
			m.StepAll(time.Millisecond)
			if err := m.Remove(name); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	m.Stop()

	before := m.Snapshot()
	time.Sleep(20 * time.Millisecond)
	after := m.Snapshot()
	if len(after) != 8 {
		t.Fatalf("%d stations after churn, want 8", len(after))
	}
	for i, st := range after {
		if st.State != "adopted" {
			t.Errorf("%s: state %q after the last Stop, want adopted", st.Name, st.State)
		}
		if st.Now != before[i].Now {
			t.Errorf("%s: advanced %v → %v after the last Stop", st.Name, before[i].Now, st.Now)
		}
	}
}
