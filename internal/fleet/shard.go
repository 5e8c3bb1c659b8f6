package fleet

import (
	"sync"
	"sync/atomic"
	"time"
)

// MaxShards caps Config.Shards. The fixed bound lets sorted fleet-wide
// iteration (Names, Snapshot) merge shard lists through stack-resident
// cursor arrays instead of heap-allocated state, keeping those paths
// allocation-free however the fleet is sharded.
const MaxShards = 64

// shardOf maps a station name to its home shard: FNV-1a over the name,
// folded modulo the shard count. The hash is a pure function of the name,
// so a station retired and re-added always lands in the same shard.
func shardOf(name string, nshards int) int {
	h := uint64(fnvOffset64)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= fnvPrime64
	}
	return int(h % uint64(nshards))
}

// shard is one fixed partition of the fleet. Each shard owns its own
// copy-on-write sorted device list, its own churn counters (feeding the
// shard's render generation, so one shard's churn never invalidates
// another's cached exposition segment), its own memory pool (so stations
// stepped together sit adjacent in memory) and, once parallel stepping
// starts, its own persistent step-worker goroutine.
type shard struct {
	devices atomic.Pointer[[]*Device] // sorted by name, copy-on-write
	adopted atomic.Uint64
	retired atomic.Uint64
	pool    memPool
	stepCh  chan time.Duration // nil until the step workers launch
}

// list returns the shard's current published device slice.
func (sh *shard) list() []*Device {
	return *sh.devices.Load()
}

// devIter merges the per-shard sorted device lists into one
// name-ordered stream without allocating: the lists and cursors live in
// fixed arrays sized by MaxShards, so the iterator can sit on a caller's
// stack. The lists are the atomically published snapshots loaded at
// init time — iteration sees the fleet as of that instant, like every
// other copy-on-write reader.
type devIter struct {
	lists [MaxShards][]*Device
	cur   [MaxShards]int
	n     int
}

func (it *devIter) init(shards []shard) {
	it.n = len(shards)
	for i := range shards {
		it.lists[i] = shards[i].list()
		it.cur[i] = 0
	}
}

// next returns the next device in global name order, or nil when done.
// A linear scan over at most MaxShards cursors per step is cheaper than
// heap machinery at this width, and allocates nothing.
func (it *devIter) next() *Device {
	best := -1
	for i := 0; i < it.n; i++ {
		if it.cur[i] >= len(it.lists[i]) {
			continue
		}
		if best < 0 || it.lists[i][it.cur[i]].name < it.lists[best][it.cur[best]].name {
			best = i
		}
	}
	if best < 0 {
		return nil
	}
	d := it.lists[best][it.cur[best]]
	it.cur[best]++
	return d
}

// memPool is a shard's adoption-time memory allocator: ring arenas, ring
// point buffers and batch columns are carved out of large per-shard
// slabs instead of individually heap-allocated, so the working sets of
// stations adopted (and later stepped) together are adjacent in memory —
// the locality lever against the L2/L3 thrashing that flattened ingest
// scaling at 256 stations. Retired stations' chunks go onto per-size
// free lists and are handed to the next same-shape adoption, so a churny
// fleet recycles a bounded pool instead of growing the heap without
// bound. All methods are called on the (rare) adopt/retire paths only —
// never from ingest or scrape — so one mutex is plenty.
type memPool struct {
	mu   sync.Mutex
	f64  slab[float64]
	dur  slab[time.Duration]
	pts  slab[Point]
	ints slab[int]
}

// slabChunkMin is the minimum slab size in elements: big enough that a
// default station's ring arena and batch columns carve from one slab
// run, small enough that a near-empty shard wastes little.
const slabChunkMin = 16384

// slab carves fixed-size chunks of T from large contiguous backing
// arrays. Chunks come back via put and are reused exact-size; the free
// map is keyed by capacity, which in practice has a handful of distinct
// values per fleet (one per station shape).
type slab[T any] struct {
	cur  []T
	free map[int][][]T
}

// get returns a chunk of exactly n elements (len n, cap n). Contents are
// unspecified — callers treat chunks as uninitialised memory, which every
// current use (ring arenas, re-sliced batch columns) already does.
func (s *slab[T]) get(n int) []T {
	if n == 0 {
		return nil
	}
	if lst := s.free[n]; len(lst) > 0 {
		out := lst[len(lst)-1]
		s.free[n] = lst[:len(lst)-1]
		return out[:n]
	}
	if len(s.cur) < n {
		size := slabChunkMin
		if n > size {
			size = n
		}
		s.cur = make([]T, size)
	}
	out := s.cur[:n:n]
	s.cur = s.cur[n:]
	return out
}

// put returns a chunk for reuse. Only chunks whose capacity matches a
// future get are ever handed out again; odd-sized strays just sit on
// their own free list.
func (s *slab[T]) put(x []T) {
	if cap(x) == 0 {
		return
	}
	if s.free == nil {
		s.free = make(map[int][][]T)
	}
	x = x[:cap(x)]
	s.free[cap(x)] = append(s.free[cap(x)], x)
}

// devMem is the pooled memory of one device, allocated in one pool
// critical section at adoption and returned in one at retirement.
type devMem struct {
	ringBuf    []Point
	ringArena  []float64
	batchTime  []time.Duration
	batchChans []float64
	batchTotal []float64
	batchMarks []int
}

// grab carves a device's ring and batch memory from the shard pool.
// ringCap and chans shape the ring; batchSamples pre-sizes the columnar
// batch for the expected samples per step (native rate × manager slice),
// so steady-state ReadInto fills slab-backed columns without growing
// them. A step larger than the pre-size (a warmup burst) just grows the
// columns off-slab — correct, merely less local.
func (p *memPool) grab(ringCap, chans, batchSamples int) devMem {
	p.mu.Lock()
	defer p.mu.Unlock()
	cc := chans
	if cc < 1 {
		cc = 1
	}
	return devMem{
		ringBuf:    p.pts.get(ringCap),
		ringArena:  p.f64.get(ringCap * chans),
		batchTime:  p.dur.get(batchSamples),
		batchChans: p.f64.get(batchSamples * cc),
		batchTotal: p.f64.get(batchSamples),
		batchMarks: p.ints.get(16),
	}
}

// release returns a retired device's pooled memory for the next
// adoption. Chunks that grew past their pooled capacity mid-life (batch
// columns after an oversized step) were reallocated off-slab by append;
// whatever slice the device holds now is still a valid chunk to recycle.
func (p *memPool) release(m devMem) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.pts.put(m.ringBuf)
	p.f64.put(m.ringArena)
	p.dur.put(m.batchTime)
	p.f64.put(m.batchChans)
	p.f64.put(m.batchTotal)
	p.ints.put(m.batchMarks)
}
