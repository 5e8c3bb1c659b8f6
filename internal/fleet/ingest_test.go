package fleet

// Tests and benchmarks for the zero-allocation batch ingest path and the
// lock-decoupled status publication. The stub source stands in for a
// 20 kHz backend with no simulated hardware behind it, so allocation
// counts and cycle counts measure the fleet layer itself.

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync/atomic"
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

// TestStepAllocatesOnlyAtHistorySeals pins the ingest allocation
// contract quantum by quantum, through the public StepAll path with fold
// sampling live: a quantum in which no history block seals allocates
// nothing, and one that seals blocks allocates at most two objects per
// seal (the sealed copy of the block's bits, and now and then the growth
// of the series' block slice). Stations run long enough to seal several
// blocks each, on the serial path (fewer than stepParallelMin stations)
// and on the parallel shard-worker path.
//
// The process count is what the runtime allocates, so the runtime is held
// still: one P, the collector off. Parking the step workers on their
// channels and the stepper on its WaitGroup takes goroutine wait records
// (sudogs) from per-P pools, which every GC cycle empties and which
// drift between Ps, so with two Ps a parallel quantum now and then
// allocates a few to refill them. Even so the runtime's background
// goroutines may allocate while a quantum is measured (the scavenger
// growing a timer heap), so two objects over the run are forgiven; an
// allocation of the fleet's on any path a quantum takes would show in
// hundreds of quanta.
func TestStepAllocatesOnlyAtHistorySeals(t *testing.T) {
	for _, tc := range []struct {
		name     string
		stations int
	}{
		{"serial", 16},
		{"parallel", stepParallelMin},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			m := NewManager(Config{})
			t.Cleanup(m.Close)
			devs := make([]*Device, tc.stations)
			for i := range devs {
				d, err := m.Add(fmt.Sprintf("s%02d", i), "stub", &stubSource{})
				if err != nil {
					t.Fatal(err)
				}
				devs[i] = d
				// Stagger the stations so their seals land in different
				// quanta.
				m.StepAll(10 * time.Millisecond)
			}
			seals := func() uint64 {
				var n uint64
				for _, d := range devs {
					n += d.HistoryStats().Appended / history.DefaultBlockPoints
				}
				return n
			}
			var ms runtime.MemStats
			mallocs := func() uint64 {
				runtime.ReadMemStats(&ms)
				return ms.Mallocs
			}
			m.StepAll(100 * time.Millisecond)
			folds := m.IngestFoldHist().Count()
			const quanta = 600 // 3 s: every station seals at least twice
			var sealed, sealQuanta, stray uint64
			for q := 0; q < quanta; q++ {
				s0, a0 := seals(), mallocs()
				m.StepAll(5 * time.Millisecond)
				allocs, s := mallocs()-a0, seals()-s0
				if allocs > 2*s {
					t.Logf("quantum %d allocated %d objects while sealing %d history blocks", q, allocs, s)
					stray += allocs - 2*s
				}
				sealed += s
				if s > 0 {
					sealQuanta++
				}
			}
			if stray > 2 {
				t.Errorf("quanta allocated %d objects beyond two per sealed history block, want at most 2", stray)
			}
			if want := 2 * uint64(tc.stations); sealed < want {
				t.Errorf("%d quanta sealed %d history blocks, want at least %d: the guard never crossed a seal",
					quanta, sealed, want)
			}
			if sealQuanta == quanta {
				t.Error("every quantum sealed a block: the zero-alloc quanta went unchecked")
			}
			if m.IngestFoldHist().Count() <= folds {
				t.Error("fold histogram did not advance: the guard did not cover instrumented ingest")
			}
		})
	}
}

// rampSource is a one-channel 20 kHz source whose every reading is an
// exact function of its sample count n: sample i (1-based) reads i watts
// at i sample periods, so block k of 20 samples averages 20k − 9.5 W,
// and its energy counter holds exactly n × rampJoule.
type rampSource struct {
	now time.Duration
	n   int
}

const rampJoule = 0.25

func (s *rampSource) Meta() source.Meta {
	return source.Meta{Backend: "ramp", RateHz: 20000, Channels: []string{"a"}}
}
func (s *rampSource) Now() time.Duration { return s.now }

func (s *rampSource) ReadInto(d time.Duration, b *source.Batch) error {
	b.Reset(1)
	s.now += d
	k := int(s.now/stubPeriod) - s.n
	b.Extend(k)
	for i := 0; i < k; i++ {
		s.n++
		b.Time[i] = time.Duration(s.n) * stubPeriod
		b.Total[i] = float64(s.n)
		b.Chans[i] = float64(s.n)
	}
	return nil
}

func (s *rampSource) Joules() float64 { return float64(s.n) * rampJoule }
func (s *rampSource) Resyncs() int    { return 0 }
func (s *rampSource) Close()          {}

// TestStatusOneRead races a stepper against Status and SnapshotInto
// readers over ramp sources, whose samples, clock, energy, ring counts
// and block watts are all exact functions of one sample count: a status
// mixing fields of two reads fails at least one of the identities.
func TestStatusOneRead(t *testing.T) {
	m := NewManager(Config{RingCap: 64})
	t.Cleanup(m.Close)
	for i := 0; i < 4; i++ {
		if _, err := m.Add(fmt.Sprintf("r%d", i), "ramp", &rampSource{}); err != nil {
			t.Fatal(err)
		}
	}
	check := func(st *Status) error {
		n := st.Samples
		blocks := n / 20
		switch {
		case st.Now != time.Duration(n)*stubPeriod:
			return fmt.Errorf("now %v with %d samples", st.Now, n)
		case st.Joules != float64(n)*rampJoule:
			return fmt.Errorf("joules %v with %d samples", st.Joules, n)
		case st.RingTotal != blocks:
			return fmt.Errorf("ring total %d with %d samples", st.RingTotal, n)
		case st.RingLen != int(min(blocks, 64)):
			return fmt.Errorf("ring len %d with %d samples", st.RingLen, n)
		case len(st.PairWatts) != 1 || st.PairWatts[0] != st.Watts:
			return fmt.Errorf("pair watts %v with watts %v", st.PairWatts, st.Watts)
		case blocks > 0 && math.Abs(st.Watts-(20*float64(blocks)-9.5)) > 1e-6:
			return fmt.Errorf("watts %v with %d samples", st.Watts, n)
		}
		return nil
	}

	done := make(chan struct{})
	errs := make(chan error, 2)
	var checked atomic.Uint64
	reader := func(read func([]Status) []Status) {
		var snap []Status
		for {
			select {
			case <-done:
				errs <- nil
				return
			default:
			}
			snap = read(snap[:0])
			for i := range snap {
				if err := check(&snap[i]); err != nil {
					errs <- fmt.Errorf("%s: %v", snap[i].Name, err)
					return
				}
			}
			checked.Add(uint64(len(snap)))
		}
	}
	d := m.Device("r0")
	go reader(func(dst []Status) []Status { return append(dst, d.Status()) })
	go reader(m.SnapshotInto)
	for q := 0; q < 1000; q++ {
		m.StepAll(5 * time.Millisecond)
	}
	close(done)
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	if checked.Load() == 0 {
		t.Fatal("no status checked")
	}
	if st := d.Status(); st.Samples != 100000 {
		t.Errorf("samples = %d after 5 s at 20 kHz, want 100000", st.Samples)
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

// TestStatusValuesFromStub cross-checks the published status fields
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

// chanSource is a stubSource that declares chans channels. The fold
// benchmarks and tests feed its device batches directly, never reading it.
type chanSource struct {
	stubSource
	chans int
}

func (s *chanSource) Meta() source.Meta {
	return source.Meta{Backend: "stub", RateHz: 20000,
		Channels: []string{"a", "b", "c", "d"}[:s.chans]}
}

// chanDevice adopts a chanSource of chans channels into a default fleet.
func chanDevice(t testing.TB, chans int) *Device {
	m := NewManager(Config{})
	d, err := m.Add("dev0", "stub", &chanSource{chans: chans})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return d
}

// noisyBatches cuts one seeded stream of count*n samples into count
// batches of n: each channel holds a level with Gaussian noise, and about
// one sample in 500 is an isolated spike of three times its row, the
// input that makes the spike gate's and the fold's comparisons hard to
// predict. Every batch carries the timestamps 1..n sample periods, so
// history drops the repeats when batches are folded in a cycle.
func noisyBatches(chans, count, n int, seed int64) []source.Batch {
	rng := rand.New(rand.NewSource(seed))
	out := make([]source.Batch, count)
	row := make([]float64, chans)
	spiked := false
	for k := range out {
		b := &out[k]
		b.Reset(chans)
		for i := 0; i < n; i++ {
			spike := !spiked && rng.Intn(500) == 0
			total := 0.0
			for m := range row {
				row[m] = 10*float64(m+1) + rng.NormFloat64()*0.5
				if spike {
					row[m] *= 3
				}
				total += row[m]
			}
			spiked = spike
			b.Append(time.Duration(i+1)*stubPeriod, row, total)
		}
	}
	return out
}

// BenchmarkFleetIngestFold is the per-station ingest hot path in
// isolation: folding prefilled columnar batches into a device — the
// spike gate, per-sample accumulate, block emit, ring push and telemetry
// publish, the same work the fold histogram times, with no source behind
// it. perfbench's fleet.step_self_ns_per_sample row covers the same fold
// inside whole steps of a served fleet. Each op folds the next of 64
// noisy batches (noisyBatches), so the gate's and the fold's comparisons
// see data no branch predictor learns, on a three-channel rig and on the
// two-channel rows of the ssd rigs. The gate rewrites the spikes it
// quarantines in place, so each op first restores its batch from the
// pristine copy; the copy rows time that restore alone, the floor under
// the fold rows.
func BenchmarkFleetIngestFold(b *testing.B) {
	const n = 100 // five block-20 points per op
	for _, chans := range []int{3, 2} {
		for _, fold := range []bool{true, false} {
			name := fmt.Sprintf("chans-%d", chans)
			if !fold {
				name += "-copy"
			}
			b.Run(name, func(b *testing.B) {
				d := chanDevice(b, chans)
				pristine := noisyBatches(chans, 64, n, 1)
				var batch source.Batch
				batch.Reset(chans)
				batch.Extend(n)
				copy(batch.Time, pristine[0].Time)
				d.mu.Lock()
				defer d.mu.Unlock()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					p := &pristine[i%len(pristine)]
					copy(batch.Total, p.Total)
					copy(batch.Chans, p.Chans)
					if fold {
						d.despike(&batch, 0)
						d.ingestBatch(&batch)
						d.flush()
						d.publish()
					}
				}
				b.StopTimer()
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/sample")
			})
		}
	}
}

// BenchmarkFleetStatus is the scrape-side cost of one station's
// status copy under its publication lock.
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
