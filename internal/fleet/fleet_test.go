package fleet

import (
	"sync"
	"testing"
	"time"
)

// testFleet builds the canonical 3-station fleet: a PCIe GPU, a USB-C SoC
// and an SSD.
func testFleet(t *testing.T, cfg Config) *Manager {
	t.Helper()
	m, err := FromSpec("gpu0=rtx4000ada,soc0=jetson,ssd0=ssd", 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return m
}

func TestManagerThreeStations(t *testing.T) {
	m := testFleet(t, Config{})
	if m.Size() != 3 {
		t.Fatalf("Size = %d, want 3", m.Size())
	}
	if got := m.Names(); len(got) != 3 || got[0] != "gpu0" || got[1] != "soc0" || got[2] != "ssd0" {
		t.Fatalf("Names = %v", got)
	}
	m.StepAll(time.Second)

	wantPairs := map[string]int{"gpu0": 3, "soc0": 1, "ssd0": 2}
	for _, st := range m.Snapshot() {
		if st.Pairs != wantPairs[st.Name] {
			t.Errorf("%s: pairs = %d, want %d", st.Name, st.Pairs, wantPairs[st.Name])
		}
		if st.Watts <= 0 {
			t.Errorf("%s: watts = %v, want > 0", st.Name, st.Watts)
		}
		if st.Joules <= 0 {
			t.Errorf("%s: joules = %v, want > 0", st.Name, st.Joules)
		}
		// One virtual second at 20 kHz, minus stream-start alignment.
		if st.Samples < 15000 {
			t.Errorf("%s: samples = %d, want >= 15000", st.Name, st.Samples)
		}
		if st.Resyncs != 0 {
			t.Errorf("%s: resyncs = %d on a clean link", st.Name, st.Resyncs)
		}
		// Block 20 → about 1000 ring points per virtual second.
		if st.RingTotal < 700 {
			t.Errorf("%s: ring total = %d, want >= 700", st.Name, st.RingTotal)
		}
	}
}

// TestManagerMixedBackends runs a heterogeneous fleet — PowerSensor3 rigs
// next to polled software meters — and checks each station ingests at its
// own native rate with rate-derived ring pacing.
func TestManagerMixedBackends(t *testing.T) {
	m, err := FromSpec("gpu0=rtx4000ada,gpu0sw=nvml,cpu0=rapl,gpu1sw=amdsmi", 1, Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	m.StepAll(2 * time.Second)

	want := map[string]struct {
		backend    string
		rateHz     float64
		minSamples uint64
	}{
		"gpu0":   {"powersensor3", 20000, 30000},
		"gpu0sw": {"nvml", 10, 15},
		"cpu0":   {"rapl", 1000, 1500},
		"gpu1sw": {"amdsmi", 1000, 1500},
	}
	for _, st := range m.Snapshot() {
		w := want[st.Name]
		if st.Backend != w.backend {
			t.Errorf("%s: backend = %q, want %q", st.Name, st.Backend, w.backend)
		}
		if st.RateHz != w.rateHz {
			t.Errorf("%s: rate = %v Hz, want %v", st.Name, st.RateHz, w.rateHz)
		}
		if st.Samples < w.minSamples {
			t.Errorf("%s: %d samples over 2s at %v Hz, want >= %d",
				st.Name, st.Samples, w.rateHz, w.minSamples)
		}
		if st.Joules <= 0 {
			t.Errorf("%s: joules = %v, want > 0", st.Name, st.Joules)
		}
		if st.Watts <= 0 {
			t.Errorf("%s: watts = %v, want > 0", st.Name, st.Watts)
		}
		if st.Resyncs != 0 {
			t.Errorf("%s: resyncs = %d", st.Name, st.Resyncs)
		}
		if len(st.Channels) != st.Pairs {
			t.Errorf("%s: %d channel labels for %d channels", st.Name, len(st.Channels), st.Pairs)
		}
		// Ring pacing derives from the native rate: every source lands
		// near one point per PointPeriod (1 ms default) — except sources
		// slower than the period, which emit one point per sample.
		perSecond := st.RateHz
		if st.RateHz >= 1000 {
			perSecond = 1000
		}
		if lo := uint64(2 * perSecond * 0.7); st.RingTotal < lo {
			t.Errorf("%s: ring total = %d over 2s, want >= %d", st.Name, st.RingTotal, lo)
		}
	}
}

// TestManagerMixedConcurrent is the -race workout for a heterogeneous
// fleet: PowerSensor and polled-meter stations advance under Start's
// pacer while snapshots, subscriptions and traces run against them.
func TestManagerMixedConcurrent(t *testing.T) {
	m, err := FromSpec("gpu0=rtx4000ada,gpu0sw=nvml,cpu0=rapl", 1,
		Config{Slice: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	ch, cancel := m.Device("cpu0").Subscribe(256)
	defer cancel()

	m.Start()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	stopReaders := sync.OnceFunc(func() { close(stop); wg.Wait() })
	defer stopReaders()
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, st := range m.Snapshot() {
					_ = st.Watts
				}
				_ = m.Device("gpu0sw").Trace(50)
			}
		}()
	}
	deadline := time.After(300 * time.Millisecond)
	var received int
	for running := true; running; {
		select {
		case <-ch:
			received++
		case <-deadline:
			running = false
		}
	}
	// The pacer steps every station in lockstep, so on a loaded host the
	// 20 kHz rig can hold virtual time short of the 10 Hz meter's first
	// poll for the first 300 ms: keep the readers running until every
	// station has ingested and the subscriber has received, so ingest
	// overlaps the concurrent snapshots and traces.
	waitFor(t, 10*time.Second, "every station to ingest and the software-meter subscriber to receive while readers run", func() bool {
		for len(ch) > 0 {
			<-ch
			received++
		}
		for _, st := range m.Snapshot() {
			if st.Samples == 0 {
				return false
			}
		}
		return received > 0
	})
	stopReaders()
	m.Stop()
}

func TestManagerUnknownDevice(t *testing.T) {
	m := testFleet(t, Config{})
	if m.Device("nope") != nil {
		t.Fatal("Device(nope) != nil")
	}
	if m.Device("gpu0") == nil {
		t.Fatal("Device(gpu0) == nil")
	}
}

func TestManagerAddErrors(t *testing.T) {
	m := testFleet(t, Config{})
	if _, err := m.Add("gpu0", "ssd", nil); err == nil {
		t.Fatal("duplicate Add succeeded")
	}
	m.Start()
	defer m.Stop()
	// Duplicate names are rejected on a running manager too — before the
	// source is touched, so nil is safe here.
	if _, err := m.Add("gpu0", "ssd", nil); err == nil {
		t.Fatal("duplicate Add after Start succeeded")
	}
	if err := m.Remove("nope"); err == nil {
		t.Fatal("Remove of unknown station succeeded")
	}
}

// TestManagerConcurrent drives the fleet from Start's pacer while other
// goroutines snapshot, subscribe and export traces — the -race workout for
// the whole ingest path.
func TestManagerConcurrent(t *testing.T) {
	m := testFleet(t, Config{Slice: 2 * time.Millisecond})
	ch, cancel := m.Device("gpu0").Subscribe(256)
	defer cancel()

	m.Start()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, st := range m.Snapshot() {
					_ = st.Watts
				}
				_ = m.Device("ssd0").Trace(50)
			}
		}()
	}
	// Let the fleet make progress in wall time.
	deadline := time.After(300 * time.Millisecond)
	var received int
	for running := true; running; {
		select {
		case <-ch:
			received++
		case <-deadline:
			running = false
		}
	}
	close(stop)
	wg.Wait()
	m.Stop()

	if received == 0 {
		t.Fatal("subscriber received no points while fleet ran")
	}
	for _, st := range m.Snapshot() {
		if st.Samples == 0 {
			t.Errorf("%s ingested no samples", st.Name)
		}
	}

	// Stop is a barrier: no further progress afterwards.
	before := m.Snapshot()
	time.Sleep(20 * time.Millisecond)
	after := m.Snapshot()
	for i := range before {
		if before[i].Samples != after[i].Samples {
			t.Errorf("%s advanced after Stop: %d -> %d",
				before[i].Name, before[i].Samples, after[i].Samples)
		}
	}
}

func TestSubscribeDropsWhenFull(t *testing.T) {
	m := testFleet(t, Config{})
	dev := m.Device("gpu0")
	ch, cancel := dev.Subscribe(4)
	// 100 ms → ~100 points against a 4-deep channel nobody drains.
	m.StepAll(100 * time.Millisecond)
	st := dev.Status()
	if st.Dropped == 0 {
		t.Fatalf("dropped = 0 with a full subscriber (ring total %d)", st.RingTotal)
	}
	if got := uint64(len(ch)) + st.Dropped; got != st.RingTotal {
		t.Errorf("delivered+dropped = %d, want ring total %d", got, st.RingTotal)
	}
	cancel()
	if _, open := <-ch; open {
		// Buffered points drain first; the channel must eventually close.
		for range ch {
		}
	}
	// A cancelled subscriber no longer accumulates drops.
	before := dev.Status().Dropped
	m.StepAll(50 * time.Millisecond)
	if after := dev.Status().Dropped; after != before {
		t.Errorf("dropped kept growing after cancel: %d -> %d", before, after)
	}
}

func TestDeviceTrace(t *testing.T) {
	m := testFleet(t, Config{Block: 20})
	m.StepAll(500 * time.Millisecond)
	dev := m.Device("gpu0")

	tr := dev.Trace(0)
	if tr.Pairs != 3 {
		t.Fatalf("trace pairs = %d, want 3", tr.Pairs)
	}
	if len(tr.Points) < 400 {
		t.Fatalf("trace has %d points, want >= 400", len(tr.Points))
	}
	for i, p := range tr.Points {
		if len(p.Watts) != 3 {
			t.Fatalf("point %d has %d pair columns", i, len(p.Watts))
		}
		if i > 0 && p.Time <= tr.Points[i-1].Time {
			t.Fatalf("trace time not increasing at %d: %v <= %v", i, p.Time, tr.Points[i-1].Time)
		}
	}
	// Downsampled spacing: block 20 at 20 kHz → 1 ms between points.
	if dt := tr.Points[1].Time - tr.Points[0].Time; dt != time.Millisecond {
		t.Errorf("point spacing = %v, want 1ms", dt)
	}
	if tr.Energy() <= 0 {
		t.Errorf("trace energy = %v, want > 0", tr.Energy())
	}

	if got := len(dev.Trace(25).Points); got != 25 {
		t.Errorf("capped trace has %d points, want 25", got)
	}
}

// TestDownsampleAgainstSensor cross-checks the ring's block averages
// against the sensor's own cumulative energy: integrating ring points over
// a window must come out close to the Joules counter.
func TestDownsampleAgainstSensor(t *testing.T) {
	m := testFleet(t, Config{Block: 20, RingCap: 1 << 16})
	m.StepAll(time.Second)
	dev := m.Device("soc0")
	st := dev.Status()

	var joules float64
	for _, p := range dev.Ring().Snapshot(0) {
		joules += p.Total * 0.001 // 1 ms per block-20 point
		if p.Min > p.Total || p.Total > p.Max {
			t.Fatalf("block stats inconsistent: min=%v mean=%v max=%v", p.Min, p.Total, p.Max)
		}
	}
	if diff := joules - st.Joules; diff < -0.05*st.Joules || diff > 0.05*st.Joules {
		t.Errorf("ring-integrated energy %v J vs sensor %v J", joules, st.Joules)
	}
}
