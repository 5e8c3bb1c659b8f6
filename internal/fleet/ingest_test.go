package fleet

// Tests and benchmarks for the zero-allocation batch ingest path and the
// lock-decoupled status publication. The stub source stands in for a
// 20 kHz backend with no simulated hardware behind it, so allocation
// counts and cycle counts measure the fleet layer itself.

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/history"
	"repro/internal/source"
)

// stubSource emits a fixed three-channel waveform at 20 kHz, filling
// batches with direct indexed writes like the cheapest real source would.
// When markAt is set, the markAt-th sample of the stream (1-based) is
// flagged as a time-synced user marker.
type stubSource struct {
	now    time.Duration
	last   time.Duration
	joule  float64
	count  int // samples emitted so far
	markAt int // 1-based ordinal of the sample to mark; 0 = never
}

const stubPeriod = time.Second / 20000

func (s *stubSource) Meta() source.Meta {
	return source.Meta{Backend: "stub", RateHz: 20000,
		Channels: []string{"a", "b", "c"}}
}
func (s *stubSource) Now() time.Duration { return s.now }

func (s *stubSource) ReadInto(d time.Duration, b *source.Batch) error {
	b.Reset(3)
	target := s.now + d
	s.now = target
	if target <= s.last {
		return nil
	}
	k := int((target - s.last) / stubPeriod)
	b.Extend(k)
	t := s.last
	for i := 0; i < k; i++ {
		t += stubPeriod
		b.Time[i] = t
		b.Total[i] = 60
		c := b.Chans[i*3 : i*3+3]
		c[0], c[1], c[2] = 10, 20, 30
	}
	if s.markAt > s.count && s.markAt <= s.count+k {
		b.Marks = append(b.Marks, s.markAt-s.count-1)
	}
	s.count += k
	s.joule += 60 * float64(k) * stubPeriod.Seconds()
	s.last = t
	return nil
}

func (s *stubSource) Joules() float64 { return s.joule }
func (s *stubSource) Resyncs() int    { return 0 }
func (s *stubSource) Close()          {}

func stubDevice(t testing.TB) (*Manager, *Device) {
	m := NewManager(Config{})
	d, err := m.Add("dev0", "stub", &stubSource{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return m, d
}

// TestIngestSteadyStateZeroAlloc pins the tentpole contract: once the
// batch arrays and ring arena are warm, advancing a station allocates
// nothing — not per sample, not per block, not per telemetry refresh.
// The fold histogram must demonstrably advance during the guard, so the zero-alloc claim covers the instrumented path, not a
// path with telemetry compiled out.
func TestIngestSteadyStateZeroAlloc(t *testing.T) {
	m, _ := stubDevice(t)
	m.StepAll(200 * time.Millisecond) // warm batch arrays, cross many blocks
	before := m.IngestFoldHist().Count()
	allocs := testing.AllocsPerRun(100, func() {
		m.StepAll(5 * time.Millisecond)
	})
	if allocs != 0 {
		t.Errorf("steady-state ingest allocates %v per step, want 0", allocs)
	}
	if after := m.IngestFoldHist().Count(); after <= before {
		t.Errorf("fold histogram did not advance during the guard (%d -> %d): "+
			"the zero-alloc result proves nothing about instrumented ingest",
			before, after)
	}
}

// TestIngestAllocatesOnlySealedHistoryBlocks extends the zero-alloc
// ingest contract across history block seals: with history written at
// every step, the only steady-state allocation is the exact-size copy
// of each block the tier seals and keeps. One run steps exactly one
// block's worth of 1 ms points, so it seals one block; the block
// slice's amortised growth rounds away in the per-run average.
func TestIngestAllocatesOnlySealedHistoryBlocks(t *testing.T) {
	m, d := stubDevice(t)
	m.StepAll(1500 * time.Millisecond) // one sealed block, warm head buffer
	blockSpan := time.Duration(history.DefaultBlockPoints) * time.Millisecond
	before := d.HistoryStats().Blocks
	const runs = 4
	allocs := testing.AllocsPerRun(runs, func() {
		m.StepAll(blockSpan)
	})
	sealed := d.HistoryStats().Blocks - before
	if sealed != runs+1 { // AllocsPerRun's warm-up call seals one too
		t.Fatalf("%d runs of one block span sealed %d blocks, want %d", runs, sealed, runs+1)
	}
	if allocs != 1 {
		t.Errorf("ingest allocates %v per sealed history block, want 1 (its bits)", allocs)
	}
}

// TestStatusWithoutIngestMutex pins the scrape-decoupling contract:
// Status and Manager.Snapshot must complete while a station's ingest
// mutex is held (as it is for the whole of every ingest step).
func TestStatusWithoutIngestMutex(t *testing.T) {
	m, d := stubDevice(t)
	m.StepAll(50 * time.Millisecond)
	want := d.Status()

	d.mu.Lock()
	defer d.mu.Unlock()
	done := make(chan []Status, 1)
	go func() {
		_ = d.Status()
		done <- m.Snapshot()
	}()
	select {
	case snap := <-done:
		if len(snap) != 1 || snap[0].Samples != want.Samples {
			t.Errorf("snapshot under held ingest mutex = %+v, want samples %d",
				snap, want.Samples)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Status/Snapshot blocked on the ingest mutex")
	}
}

// TestStatusValuesFromStub cross-checks the atomically published fields
// against the stub's exact arithmetic.
func TestStatusValuesFromStub(t *testing.T) {
	m, d := stubDevice(t)
	m.StepAll(time.Second)
	st := d.Status()
	if st.Samples != 20000 {
		t.Errorf("samples = %d, want 20000", st.Samples)
	}
	if st.Watts != 60 {
		t.Errorf("watts = %v, want 60", st.Watts)
	}
	if len(st.PairWatts) != 3 || st.PairWatts[0] != 10 || st.PairWatts[1] != 20 || st.PairWatts[2] != 30 {
		t.Errorf("pair watts = %v, want [10 20 30]", st.PairWatts)
	}
	if st.Joules < 59.9 || st.Joules > 60.1 {
		t.Errorf("joules = %v, want ~60", st.Joules)
	}
	if st.Now != time.Second {
		t.Errorf("now = %v, want 1s", st.Now)
	}
	// Block 20 at 20 kHz → 1000 points over one virtual second.
	if st.RingTotal != 1000 || st.RingLen != 1000 {
		t.Errorf("ring total=%d len=%d, want 1000, 1000", st.RingTotal, st.RingLen)
	}
}

// TestStatusChannelsDetached pins the aliasing fix: the Channels slice a
// Status carries is the caller's own — writing into it must not leak into
// the device, later snapshots, or the source's original slice.
func TestStatusChannelsDetached(t *testing.T) {
	_, d := stubDevice(t)
	st := d.Status()
	if len(st.Channels) != 3 || st.Channels[0] != "a" {
		t.Fatalf("channels = %v", st.Channels)
	}
	st.Channels[0] = "mutated"
	if got := d.Status().Channels[0]; got != "a" {
		t.Errorf("consumer write reached the device: channels[0] = %q", got)
	}
	if got := d.Meta().Channels[0]; got != "a" {
		t.Errorf("consumer write reached device meta: %q", got)
	}
}

// TestDeviceChannelsCopiedFromSource covers the other aliasing direction:
// the device snapshots the source's channel labels at adoption, so a
// source mutating its own slice afterwards cannot skew fleet metadata.
func TestDeviceChannelsCopiedFromSource(t *testing.T) {
	labels := []string{"x", "y"}
	src := source.NewPolled(source.PolledConfig{
		Meta:   source.Meta{Backend: "fake", RateHz: 10, Channels: labels},
		Watts:  func(time.Duration) float64 { return 1 },
		Joules: func(t time.Duration) float64 { return t.Seconds() },
	})
	m := NewManager(Config{})
	d, err := m.Add("dev0", "fake", src)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	labels[0] = "mutated"
	if got := d.Status().Channels[0]; got != "x" {
		t.Errorf("source-side write reached the device: channels[0] = %q", got)
	}
}

// BenchmarkFleetIngestFold is the per-station ingest hot path in
// isolation: folding prefilled columnar batches into a device — the
// spike gate, per-sample accumulate, block emit, ring push and telemetry
// publish, the same work the fold histogram times, with no source behind
// it. perfbench's fleet.step_self_ns_per_sample row covers the same fold
// inside whole steps of a served fleet.
func BenchmarkFleetIngestFold(b *testing.B) {
	_, d := stubDevice(b)
	var batch source.Batch
	batch.Reset(3)
	row := []float64{10, 20, 30}
	const n = 100 // five block-20 points per op
	for i := 0; i < n; i++ {
		batch.Append(time.Duration(i+1)*stubPeriod, row, 60)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.despike(&batch, 0)
		d.ingestBatch(&batch)
		d.flush()
		d.publish()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/sample")
}

// BenchmarkFleetStatus is the scrape-side cost of one station's
// lock-free status assembly.
func BenchmarkFleetStatus(b *testing.B) {
	m, d := stubDevice(b)
	m.StepAll(50 * time.Millisecond)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = d.Status()
	}
}

// BenchmarkFleetIngestScale spreads the fold across fleet sizes through
// the public StepAll path, stub-sourced so the fleet layer dominates.
func BenchmarkFleetIngestScale(b *testing.B) {
	for _, size := range []int{1, 16, 64, 256} {
		b.Run(fmt.Sprintf("size-%d", size), func(b *testing.B) {
			m := NewManager(Config{})
			for i := 0; i < size; i++ {
				if _, err := m.Add(fmt.Sprintf("dev%03d", i), "stub", &stubSource{}); err != nil {
					b.Fatal(err)
				}
			}
			b.Cleanup(m.Close)
			m.StepAll(100 * time.Millisecond)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// One default manager slice per op — the production
				// cadence: 100 samples per station at 20 kHz.
				m.StepAll(5 * time.Millisecond)
			}
			b.StopTimer()
			perSample := float64(b.Elapsed().Nanoseconds()) / float64(b.N) / float64(size*100)
			b.ReportMetric(perSample, "ns/sample-station")
		})
	}
}
