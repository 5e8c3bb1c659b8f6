package fleet

// Tests for the sharded manager: deterministic name→shard placement,
// Shards=1 equivalence with the unsharded manager, the parallel StepAll
// fan-out's zero-allocation contract at 1k stations, allocation-flat
// NamesInto/SnapshotInto at 10k, and a churning station's memory being
// reclaimed.

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// stubFleet builds a manager of n stub stations across the given shard
// count. Station names are s0..s(n-1); cfg tweaks beyond Shards keep the
// per-station memory small at large n.
func stubFleet(t testing.TB, n, shards int) *Manager {
	t.Helper()
	m := NewManager(Config{Shards: shards, RingCap: 64, Slice: time.Millisecond})
	for i := 0; i < n; i++ {
		if _, err := m.Add(fmt.Sprintf("s%d", i), "stub", &stubSource{}); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(m.Close)
	return m
}

// TestShardOfDeterministic pins the name→shard map: pure in the name, in
// range, and stable across managers — the property the exporter's
// per-shard label-cache eviction relies on (a retired-and-re-added name
// must come back to the shard whose retired counter advanced).
func TestShardOfDeterministic(t *testing.T) {
	m1 := NewManager(Config{Shards: 8})
	m2 := NewManager(Config{Shards: 8})
	defer m1.Close()
	defer m2.Close()
	for i := 0; i < 100; i++ {
		name := fmt.Sprintf("dev%d", i)
		s := m1.ShardOf(name)
		if s < 0 || s >= m1.ShardCount() {
			t.Fatalf("ShardOf(%s) = %d, out of [0, %d)", name, s, m1.ShardCount())
		}
		if s2 := m2.ShardOf(name); s2 != s {
			t.Fatalf("ShardOf(%s) differs across managers: %d vs %d", name, s, s2)
		}
		if s3 := m1.ShardOf(name); s3 != s {
			t.Fatalf("ShardOf(%s) unstable: %d then %d", name, s, s3)
		}
	}
	// Placement follows the map: an added station lands in its shard,
	// and only that shard's generation moves.
	s := m1.ShardOf("placed")
	gens := make([]uint64, m1.ShardCount())
	for i := range gens {
		gens[i] = m1.ShardGen(i)
	}
	if _, err := m1.Add("placed", "stub", &stubSource{}); err != nil {
		t.Fatal(err)
	}
	if got := len(m1.ShardSnapshotInto(s, nil)); got != 1 {
		t.Errorf("shard %d holds %d stations after Add, want 1", s, got)
	}
	for i, g := range gens {
		if moved := m1.ShardGen(i) != g; moved != (i == s) {
			t.Errorf("shard %d generation moved = %v after Add into shard %d", i, moved, s)
		}
	}
}

// TestShardsOneEquivalence pins that Shards=1 recovers the unsharded
// manager: one shard holding everything, globally sorted names, working
// ingest and generation tracking.
func TestShardsOneEquivalence(t *testing.T) {
	m := stubFleet(t, 10, 1)
	if m.ShardCount() != 1 {
		t.Fatalf("ShardCount = %d, want 1", m.ShardCount())
	}
	if n := len(m.ShardSnapshotInto(0, nil)); n != 10 || m.Size() != 10 {
		t.Fatalf("shard 0 holds %d of %d stations, want all 10", n, m.Size())
	}
	names := m.Names()
	if len(names) != 10 {
		t.Fatalf("Names returned %d entries, want 10", len(names))
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Names not sorted: %q before %q", names[i-1], names[i])
		}
	}
	gen := m.Gen()
	m.StepAll(5 * time.Millisecond)
	if m.Gen() == gen {
		t.Error("Gen unchanged after blocks completed")
	}
	for _, s := range m.Snapshot() {
		if s.Samples != 100 {
			t.Errorf("%s ingested %d samples over 5ms at 20kHz, want 100", s.Name, s.Samples)
		}
	}
}

// TestShardedStepMatchesSerial pins that the parallel per-shard fan-out
// ingests exactly what serial stepping does: same sample counts, same
// ring totals, regardless of shard count.
func TestShardedStepMatchesSerial(t *testing.T) {
	serial := stubFleet(t, 100, 1)  // below stepParallelMin in one shard
	sharded := stubFleet(t, 100, 8) // above it: fan-out path
	serial.StepAll(50 * time.Millisecond)
	sharded.StepAll(50 * time.Millisecond)
	a := serial.Snapshot()
	b := sharded.Snapshot()
	if len(a) != len(b) {
		t.Fatalf("snapshot sizes differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Name != b[i].Name {
			t.Fatalf("snapshot order differs at %d: %s vs %s", i, a[i].Name, b[i].Name)
		}
		if a[i].Samples != b[i].Samples || a[i].RingLen != b[i].RingLen {
			t.Errorf("%s: serial %d samples/%d points, sharded %d/%d",
				a[i].Name, a[i].Samples, a[i].RingLen, b[i].Samples, b[i].RingLen)
		}
	}
}

// TestStepAllParallelZeroAlloc extends the steady-state zero-allocation
// ingest guard to a sharded 1k fleet on the parallel fan-out path: the
// persistent per-shard step workers are fed through preallocated
// channels, so once batch arrays and ring arenas are warm a full
// parallel step allocates nothing.
func TestStepAllParallelZeroAlloc(t *testing.T) {
	m := stubFleet(t, 1000, 8)
	m.StepAll(50 * time.Millisecond) // warm arrays, start the step workers
	allocs := testing.AllocsPerRun(10, func() {
		m.StepAll(5 * time.Millisecond)
	})
	if allocs != 0 {
		t.Errorf("sharded parallel StepAll allocates %v per step, want 0", allocs)
	}
	if h := m.ShardStepHist(); h.Count() == 0 {
		t.Error("parallel steps recorded nothing in the shard step histogram")
	}
}

// TestNamesSnapshotIntoAllocFlat pins the polling contract at 10k
// stations: NamesInto and SnapshotInto with reused buffers allocate
// nothing once capacities are warm, however the fleet is sharded — the
// admin/JSON paths can poll on a timer without heap growth.
func TestNamesSnapshotIntoAllocFlat(t *testing.T) {
	n := 10000
	if testing.Short() {
		n = 1000
	}
	m := stubFleet(t, n, 8)
	names := m.NamesInto(nil)
	snap := m.SnapshotInto(nil)
	if len(names) != n || len(snap) != n {
		t.Fatalf("got %d names, %d statuses, want %d", len(names), len(snap), n)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("NamesInto not sorted: %q before %q", names[i-1], names[i])
		}
		if snap[i-1].Name >= snap[i].Name {
			t.Fatalf("SnapshotInto not sorted: %q before %q", snap[i-1].Name, snap[i].Name)
		}
	}
	allocs := testing.AllocsPerRun(5, func() {
		names = m.NamesInto(names[:0])
		snap = m.SnapshotInto(snap[:0])
	})
	if allocs != 0 {
		t.Errorf("warm NamesInto+SnapshotInto allocate %v per poll, want 0", allocs)
	}
	// The per-shard form reuses the same way.
	shardSnap := m.ShardSnapshotInto(0, nil)
	allocs = testing.AllocsPerRun(5, func() {
		shardSnap = m.ShardSnapshotInto(0, shardSnap[:0])
	})
	if allocs != 0 {
		t.Errorf("warm ShardSnapshotInto allocates %v per poll, want 0", allocs)
	}
}

// TestChurnKeepsHeapBounded drives adopt/step/retire cycles of one
// station through the manager. Functionally, a retired station's ring
// stays readable and a re-added name ingests again. On the heap, every
// retired station's memory must be reclaimable: after 500 cycles of a
// default 4096-point, 3-channel station the live heap may grow by a few
// MiB at most, where one leaked ring per cycle would cost ~180 MiB.
func TestChurnKeepsHeapBounded(t *testing.T) {
	m := NewManager(Config{Shards: 4, Slice: time.Millisecond})
	defer m.Close()
	cycle := func() *Device {
		t.Helper()
		d, err := m.Add("cycle0", "stub", &stubSource{})
		if err != nil {
			t.Fatal(err)
		}
		m.StepAll(10 * time.Millisecond)
		if d.Ring().Len() == 0 {
			t.Fatal("re-added station ingested nothing")
		}
		if err := m.Remove("cycle0"); err != nil {
			t.Fatal(err)
		}
		return d
	}
	d1 := cycle()
	// The drained ring stays readable after retirement.
	points := d1.Ring().Len()
	if snap := d1.Ring().Snapshot(0); len(snap) != points {
		t.Errorf("retired ring snapshot holds %d points, want %d", len(snap), points)
	}
	d1 = nil

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < 500; i++ {
		cycle()
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	const bound = 4 << 20
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > bound {
		t.Errorf("500 churn cycles grew the live heap by %.1f MiB, want under %d MiB",
			float64(grew)/(1<<20), bound>>20)
	}
}
