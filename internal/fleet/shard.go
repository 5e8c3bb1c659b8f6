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
// another's cached exposition segment), its own clock and due times and,
// once parallel stepping starts, its own persistent step-worker
// goroutine.
type shard struct {
	devices atomic.Pointer[[]*Device] // sorted by name, copy-on-write
	adopted atomic.Uint64
	retired atomic.Uint64
	stepCh  chan time.Duration // nil until the step workers launch

	// clock is the virtual time the shard has been stepped through,
	// stored once each quantum's due stations are stepped. Its stations
	// derive their published clocks from it, so a skipped station still
	// reads its exact time.
	clock atomic.Int64

	// mu serialises the shard's quanta and guards the schedule: due[i] is
	// the due time of built's i-th station, kept densely here so deciding
	// who is due touches no device, and next is their minimum, so a shard
	// with nothing due costs one comparison.
	mu    sync.Mutex
	built *[]*Device
	due   []time.Duration
	next  time.Duration
}

// list returns the shard's current published device slice.
func (sh *shard) list() []*Device {
	return *sh.devices.Load()
}

// skip advances the clock by q and reports true when no station of the
// shard is due within the quantum and its list is unchanged, so the
// quantum needs neither the step worker nor any device.
func (sh *shard) skip(q time.Duration) bool {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	end := time.Duration(sh.clock.Load()) + q
	if sh.devices.Load() != sh.built || sh.next <= end {
		return false
	}
	sh.clock.Store(int64(end))
	return true
}

// step advances the shard by one quantum q: it steps every station due by
// the quantum's end — each reads the quanta it skipped in the same call —
// and then moves the clock. A list changed by Add or Remove rebuilds the
// schedule first, carrying each station's due time over; a new station is
// due at once.
func (sh *shard) step(q time.Duration) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	end := time.Duration(sh.clock.Load()) + q
	if p := sh.devices.Load(); p != sh.built {
		sh.built = p
		sh.due = sh.due[:0]
		for _, d := range *p {
			sh.due = append(sh.due, d.due)
		}
		sh.next = end
	}
	if sh.next <= end {
		devs := *sh.built
		next := never
		for i, due := range sh.due {
			if due <= end {
				d := devs[i]
				due = d.step(end)
				d.due = due
				sh.due[i] = due
			}
			next = min(next, due)
		}
		sh.next = next
	}
	sh.clock.Store(int64(end))
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
