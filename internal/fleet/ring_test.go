package fleet

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"
)

func push(r *Ring, i int) {
	w := float64(i)
	r.PushN([]time.Duration{time.Duration(i) * time.Millisecond}, []float64{w, w + 0.5},
		[]float64{w}, []int{0})
}

func TestRingFillAndWraparound(t *testing.T) {
	r := NewRing(4, 2)
	if got := r.Snapshot(0); got != nil {
		t.Fatalf("empty ring snapshot = %v, want nil", got)
	}

	// Partially filled: order is insertion order.
	push(r, 0)
	push(r, 1)
	if r.Len() != 2 {
		t.Fatalf("Len=%d, want 2", r.Len())
	}
	snap := r.Snapshot(0)
	if len(snap) != 2 || snap[0].Total != 0 || snap[1].Total != 1 {
		t.Fatalf("partial snapshot = %v", snap)
	}

	// Overfill: the oldest entries are evicted, order stays oldest-first,
	// and the per-channel rows travel with their points.
	for i := 2; i < 10; i++ {
		push(r, i)
	}
	if r.Len() != 4 {
		t.Fatalf("after wrap Len=%d, want 4", r.Len())
	}
	snap = r.Snapshot(0)
	for i, p := range snap {
		want := float64(6 + i)
		if p.Total != want {
			t.Fatalf("snapshot[%d] = %+v, want total %v (full: %v)", i, p, want, snap)
		}
		if len(p.Watts) != 2 || p.Watts[0] != want || p.Watts[1] != want+0.5 {
			t.Fatalf("snapshot[%d].Watts = %v, want [%v %v]", i, p.Watts, want, want+0.5)
		}
	}

	// A capped snapshot returns the newest points, still oldest-first.
	snap = r.Snapshot(2)
	if len(snap) != 2 || snap[0].Total != 8 || snap[1].Total != 9 {
		t.Fatalf("capped snapshot = %v, want totals [8 9]", snap)
	}
	// A cap larger than the content returns everything.
	if got := len(r.Snapshot(100)); got != 4 {
		t.Fatalf("oversized cap returned %d points, want 4", got)
	}
}

// TestRingSnapshotOwnsWatts pins the arena contract: snapshots are deep
// copies, so later pushes recycling the same arena slots must not show
// through points a reader already holds.
func TestRingSnapshotOwnsWatts(t *testing.T) {
	r := NewRing(3, 1)
	for i := 0; i < 3; i++ {
		push(r, i)
	}
	snap := r.Snapshot(0)
	// Wrap every slot several times over.
	for i := 3; i < 30; i++ {
		push(r, i)
	}
	for i, p := range snap {
		if p.Watts[0] != float64(i) || p.Total != float64(i) {
			t.Fatalf("held snapshot mutated by wraparound: point %d = %+v", i, p)
		}
	}
	// And writing into a snapshot must not reach the ring.
	snap2 := r.Snapshot(1)
	snap2[0].Watts[0] = -1
	if got := r.Snapshot(1)[0].Watts[0]; got == -1 {
		t.Fatal("snapshot write reached the ring arena")
	}
}

// TestRingPushZeroAlloc pins the arena contract on the write side: a push
// copies into preallocated slots and never allocates.
func TestRingPushZeroAlloc(t *testing.T) {
	r := NewRing(8, 3)
	times := []time.Duration{time.Millisecond}
	watts := []float64{1, 2, 3}
	totals := []float64{6}
	marks := []int{0}
	allocs := testing.AllocsPerRun(1000, func() {
		r.PushN(times, watts, totals, marks)
	})
	if allocs != 0 {
		t.Errorf("PushN allocates %v per call, want 0", allocs)
	}
}

// TestRingMarksTravel: a point's marker count rides through pushes,
// wraparound recycling and snapshots like any other block statistic.
func TestRingMarksTravel(t *testing.T) {
	r := NewRing(4, 1)
	for i := 0; i < 6; i++ {
		marks := 0
		if i == 4 {
			marks = 2
		}
		r.PushN([]time.Duration{time.Duration(i) * time.Millisecond}, []float64{1},
			[]float64{1}, []int{marks})
	}
	snap := r.Snapshot(0)
	if len(snap) != 4 {
		t.Fatalf("snapshot holds %d points, want 4", len(snap))
	}
	for i, p := range snap {
		want := 0
		if p.Time == 4*time.Millisecond {
			want = 2
		}
		if p.Marks != want {
			t.Errorf("point %d (t=%v): marks = %d, want %d", i, p.Time, p.Marks, want)
		}
	}
	// A recycled slot must not inherit the previous occupant's marks.
	times := []time.Duration{10 * time.Millisecond}
	r.PushN(times, []float64{1}, []float64{1}, []int{3})
	snap = r.Snapshot(1)
	if snap[0].Marks != 3 {
		t.Errorf("PushN marks = %d, want 3", snap[0].Marks)
	}
	// The marks column is 32-bit: a larger count saturates instead of
	// wrapping.
	r.PushN(times, []float64{1}, []float64{1}, []int{math.MaxInt})
	if got := r.Snapshot(1)[0].Marks; got != math.MaxInt32 {
		t.Errorf("oversized marks = %d, want %d", got, math.MaxInt32)
	}
}

// TestRingMatchesModel drives the ring and a naive append-only slice of
// every point ever pushed through the same random PushN calls, at
// capacities on both sides of the batch sizes (so single calls overrun
// the ring) and at every small channel count, checking every field of
// every snapshot point after each call.
func TestRingMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, capacity := range []int{1, 3, 7, 2048} {
		for chans := 0; chans <= 3; chans++ {
			r := NewRing(capacity, chans)
			var model []Point
			for call := 0; call < 600; call++ {
				k := rng.Intn(2*pendCap + 1)
				times := make([]time.Duration, k)
				watts := make([]float64, k*chans)
				totals := make([]float64, k)
				marks := make([]int, k)
				for i := 0; i < k; i++ {
					p := Point{
						Time:  time.Duration(len(model)) * time.Millisecond,
						Watts: make([]float64, chans),
						Total: rng.NormFloat64(),
					}
					if rng.Intn(4) == 0 {
						p.Marks = 1 + rng.Intn(3)
					}
					for m := range p.Watts {
						p.Watts[m] = rng.NormFloat64()
					}
					times[i], totals[i], marks[i] = p.Time, p.Total, p.Marks
					copy(watts[i*chans:], p.Watts)
					model = append(model, p)
				}
				r.PushN(times, watts, totals, marks)

				held := min(len(model), capacity)
				if r.Len() != held {
					t.Fatalf("cap %d chans %d call %d: Len=%d, want %d",
						capacity, chans, call, r.Len(), held)
				}
				max := rng.Intn(capacity+3) - 1 // non-positive, capped and oversized
				n := held
				if max > 0 && max < n {
					n = max
				}
				var want []Point
				if n > 0 {
					want = model[len(model)-n:]
				}
				got := r.Snapshot(max)
				if !samePoints(got, want) {
					t.Fatalf("cap %d chans %d call %d: Snapshot(%d) = %v, want %v",
						capacity, chans, call, max, got, want)
				}
				// A returned row is the caller's: writing it must not
				// reach the ring.
				if len(got) > 0 && chans > 0 {
					got[len(got)-1].Watts[chans-1] = math.Inf(1)
					if again := r.Snapshot(max); !samePoints(again, want) {
						t.Fatalf("cap %d chans %d call %d: snapshot write reached the ring: %v",
							capacity, chans, call, again)
					}
				}
			}
		}
	}
}

// samePoints reports whether a and b hold the same points, comparing
// every field and every Watts row; a nil result equals only nil.
func samePoints(a, b []Point) bool {
	if len(a) != len(b) || (a == nil) != (b == nil) {
		return false
	}
	for i := range a {
		p, q := &a[i], &b[i]
		if p.Time != q.Time || p.Total != q.Total || p.Marks != q.Marks ||
			len(p.Watts) != len(q.Watts) || (p.Watts == nil) != (q.Watts == nil) {
			return false
		}
		for m := range p.Watts {
			if p.Watts[m] != q.Watts[m] {
				return false
			}
		}
	}
	return true
}

// ringSink makes TestRingFootprint's rings escape to the heap, where
// TotalAlloc counts them.
var ringSink *Ring

// TestRingFootprint pins the column layout's size: a slot costs at most
// 24 B of scalar columns plus 8 B per channel, and nothing else grows
// with the capacity. Not parallel: it reads the process-wide allocation
// counter, and keeps the smallest of three tries so that a stray
// background allocation cannot fail it.
func TestRingFootprint(t *testing.T) {
	const capacity, chans = 4096, 3
	const limit = capacity*(24+8*chans) + 1024
	least := uint64(math.MaxUint64)
	for try := 0; try < 3; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ringSink = NewRing(capacity, chans)
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	ringSink = nil
	if least > limit {
		t.Errorf("NewRing(%d, %d) allocates %d B (%.1f B/point), want at most %d",
			capacity, chans, least, float64(least)/capacity, limit)
	}
}

func TestRingCapacityValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewRing(0, 1) did not panic")
		}
	}()
	NewRing(0, 1)
}

// TestRingConcurrentIngestRead hammers one writer against several readers
// over the flat-arena backing; run under -race this is the memory-safety
// check, and the assertions verify readers always observe a consistent
// oldest-first window — both for full snapshots and for capped ones that
// start mid-arena — whose Watts rows match their points.
func TestRingConcurrentIngestRead(t *testing.T) {
	r := NewRing(64, 2)
	const points = 20000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for reader := 0; reader < 4; reader++ {
		max := reader * 7 // mix full and capped snapshots
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := r.Snapshot(max)
				for i, p := range snap {
					if i > 0 && p.Total != snap[i-1].Total+1 {
						t.Errorf("gap in snapshot: %v after %v", p.Total, snap[i-1].Total)
						return
					}
					// Watts rows are copied under the same lock as the
					// scalar fields: they must always agree.
					if p.Watts[0] != p.Total || p.Watts[1] != p.Total+0.5 {
						t.Errorf("point %v carries foreign watts %v", p.Total, p.Watts)
						return
					}
				}
			}
		}()
	}
	for i := 0; i < points; i++ {
		push(r, i)
	}
	close(stop)
	wg.Wait()
	snap := r.Snapshot(0)
	if len(snap) != r.Cap() || snap[len(snap)-1].Total != points-1 {
		t.Fatalf("final snapshot holds %d points ending at %v, want %d ending at %d",
			len(snap), snap[len(snap)-1].Total, r.Cap(), points-1)
	}
}

// BenchmarkRingPushN is the ring's write path at the ingest-20k shape:
// 512 rings of capacity 2048, pushed round-robin so that each push lands
// in a cache-cold ring, five points per op — one default step's worth.
func BenchmarkRingPushN(b *testing.B) {
	const rings, capacity, chans, k = 512, 2048, 3, 5
	rs := make([]*Ring, rings)
	for i := range rs {
		rs[i] = NewRing(capacity, chans)
	}
	times := make([]time.Duration, k)
	watts := make([]float64, k*chans)
	totals := make([]float64, k)
	marks := make([]int, k)
	for i := range times {
		times[i] = time.Duration(i) * time.Millisecond
		totals[i] = 60
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs[i%rings].PushN(times, watts, totals, marks)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/k, "ns/point")
}
