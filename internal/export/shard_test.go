package export

// Tests for the sharded scrape renderer: per-shard generation
// invalidation (a busy station re-renders only its own shard's segment),
// shard-scoped cache eviction under churn, scrape well-formedness at 1k
// stations with live churn, and the render path's allocation bound.

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/simsetup"
)

// twoShardFleet builds a manager holding one fast 20 kHz synth station
// and one slow 10 Hz nvml station whose names hash to different shards,
// returning the manager and the two shard indices.
func twoShardFleet(t *testing.T) (mgr *fleet.Manager, fastShard, slowShard int) {
	t.Helper()
	mgr = fleet.NewManager(fleet.Config{Shards: 8})
	t.Cleanup(mgr.Close)
	slowName := "slow0"
	slowShard = mgr.ShardOf(slowName)
	fastName := ""
	for i := 0; i < 100; i++ {
		if n := fmt.Sprintf("fast%d", i); mgr.ShardOf(n) != slowShard {
			fastName = n
			break
		}
	}
	if fastName == "" {
		t.Fatal("no candidate name hashed outside the slow station's shard")
	}
	fastShard = mgr.ShardOf(fastName)
	for _, st := range []struct{ name, kind string }{
		{fastName, "synth"}, {slowName, "nvml"},
	} {
		src, err := simsetup.NewStation(st.kind, 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := mgr.Add(st.name, st.kind, src); err != nil {
			t.Fatal(err)
		}
	}
	return mgr, fastShard, slowShard
}

// TestShardSegmentInvalidation pins the tentpole contract: a downsample
// block completed by one busy station invalidates that station's shard
// segment only — the repeat scrape re-renders one segment and serves the
// rest (including the idle station's series) from cache.
func TestShardSegmentInvalidation(t *testing.T) {
	mgr, fastShard, slowShard := twoShardFleet(t)
	// Warm to 205ms: the 10 Hz nvml station samples at 100ms multiples,
	// so the 2ms step below crosses no slow-station sample boundary
	// while the 20 kHz synth station completes two 1ms blocks.
	mgr.StepAll(205 * time.Millisecond)
	e := New(mgr)
	srv := httptest.NewServer(e.Handler())
	t.Cleanup(srv.Close)

	get(t, srv.URL+"/metrics") // cold: every shard renders
	cold := e.shardRenders.Load()
	if cold != uint64(mgr.ShardCount()) {
		t.Fatalf("cold scrape rendered %d segments, want %d", cold, mgr.ShardCount())
	}
	get(t, srv.URL+"/metrics") // idle repeat: all segments cached
	if n := e.shardRenders.Load(); n != cold {
		t.Fatalf("idle repeat scrape re-rendered %d segments", n-cold)
	}
	if hits := e.cacheHits.Load(); hits != 1 {
		t.Fatalf("idle repeat scrape was not a cache hit (hits=%d)", hits)
	}

	slowGen := mgr.ShardGen(slowShard)
	fastGen := mgr.ShardGen(fastShard)
	mgr.StepAll(2 * time.Millisecond)
	if mgr.ShardGen(slowShard) != slowGen {
		t.Fatal("slow shard's generation moved without a completed block")
	}
	if mgr.ShardGen(fastShard) == fastGen {
		t.Fatal("fast shard's generation did not move after two blocks")
	}

	_, body := get(t, srv.URL+"/metrics")
	if n := e.shardRenders.Load(); n != cold+1 {
		t.Errorf("busy-station scrape re-rendered %d segments, want exactly 1", n-cold)
	}
	if misses := e.cacheMisses.Load(); misses != 2 {
		t.Errorf("busy-station scrape misses = %d, want 2 (cold + this one)", misses)
	}
	// The slow station's series still serve — from the cached segment.
	if !strings.Contains(body, `powersensor_source_info{device="slow0",backend="nvml",kind="nvml"} 1`) {
		t.Error("cached shard's station missing from the assembled body")
	}
}

// TestShardChurnInvalidation pins the churn side of per-shard
// generations: hot-adding a station re-renders exactly the shard it
// hashed into, and retiring it again re-renders only that shard.
func TestShardChurnInvalidation(t *testing.T) {
	mgr, _, _ := twoShardFleet(t)
	e := New(mgr)
	srv := httptest.NewServer(e.Handler())
	t.Cleanup(srv.Close)

	get(t, srv.URL+"/metrics")
	base := e.shardRenders.Load()
	addSynth(t, mgr, "hot0", 7)
	get(t, srv.URL+"/metrics")
	if n := e.shardRenders.Load(); n != base+1 {
		t.Errorf("hot-add scrape re-rendered %d segments, want 1", n-base)
	}
	if err := mgr.Remove("hot0"); err != nil {
		t.Fatal(err)
	}
	_, body := get(t, srv.URL+"/metrics")
	if n := e.shardRenders.Load(); n != base+2 {
		t.Errorf("retire scrape re-rendered %d segments in total, want 2", n-base)
	}
	if strings.Contains(body, `device="hot0"`) {
		t.Error("retired station's series survived its shard's re-render")
	}
}

// TestScrapeChurn1k is the churn well-formedness contract at fleet
// scale: 1000 sharded stations stepping and churning while scrapes run —
// every body parses, the comment skeleton stays complete, and the churn
// counters stay monotonic with retired <= adopted.
func TestScrapeChurn1k(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < 1000; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "st%d=synth", i)
	}
	mgr, err := fleet.FromSpec(sb.String(), 1, fleet.Config{RingCap: 128, Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mgr.Close)
	mgr.StepAll(20 * time.Millisecond)
	srv := httptest.NewServer(New(mgr).Handler())
	t.Cleanup(srv.Close)

	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(2)
	go func() { // stepper: the whole fleet stays busy
		defer churn.Done()
		for {
			select {
			case <-stop:
				return
			default:
				mgr.StepAll(time.Millisecond)
			}
		}
	}()
	go func() { // churner: stations come and go under the scrapes
		defer churn.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			name := fmt.Sprintf("churn%d", i%10)
			addSynth(t, mgr, name, uint64(i))
			if err := mgr.Remove(name); err != nil {
				t.Errorf("Remove(%s): %v", name, err)
				return
			}
		}
	}()

	sample := regexp.MustCompile(`^[a-z_]+(\{[a-z_]+="[^"]*"(,[a-z_]+="[^"]*")*\})? -?[0-9]+(\.[0-9]+)?(e[+-][0-9]+)?$`)
	counter := func(body, name string) uint64 {
		m := regexp.MustCompile(name + ` ([0-9]+)\n`).FindStringSubmatch(body)
		if m == nil {
			t.Fatalf("scrape lost %s", name)
		}
		n, err := strconv.ParseUint(m[1], 10, 64)
		if err != nil {
			t.Fatalf("unparsable %s: %v", name, err)
		}
		return n
	}
	var lastAdopted, lastRetired uint64
	for i := 0; i < 8; i++ {
		code, body := get(t, srv.URL+"/metrics")
		if code != http.StatusOK {
			t.Fatalf("scrape %d: status %d", i, code)
		}
		comments := 0
		for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
			if strings.HasPrefix(line, "# ") {
				comments++
				continue
			}
			if !sample.MatchString(line) {
				t.Fatalf("malformed sample line at 1k under churn: %q", line)
			}
		}
		if comments != 82 {
			t.Fatalf("1k churn scrape has %d comment lines, want 82", comments)
		}
		adopted := counter(body, "powersensor_fleet_adopted_total")
		retired := counter(body, "powersensor_fleet_retired_total")
		if adopted < lastAdopted || retired < lastRetired {
			t.Fatalf("churn counters went backwards: adopted %d->%d retired %d->%d",
				lastAdopted, adopted, lastRetired, retired)
		}
		if retired > adopted {
			t.Fatalf("retired %d exceeds adopted %d", retired, adopted)
		}
		lastAdopted, lastRetired = adopted, retired
	}
	close(stop)
	churn.Wait()
}

// discardWriter is a ResponseWriter with a preallocated header and no
// body retention, so scrape allocation measurements see the render path
// rather than recorder bookkeeping.
type discardWriter struct{ h http.Header }

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardWriter) WriteHeader(int)             {}

// TestScrapeRenderAllocBound extends the zero-alloc scrape guard to a
// sharded 1k fleet: once label caches, segments and the pooled scrape
// state are warm, both the cache-hit path and the full re-render path
// allocate only net/http's Content-Type header value slice — one
// allocation per scrape, none of it proportional to fleet size.
func TestScrapeRenderAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts under the race detector, so the pooled scrape state reallocates; the bound holds only in normal builds")
	}
	var sb strings.Builder
	for i := 0; i < 1000; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "st%d=synth", i)
	}
	mgr, err := fleet.FromSpec(sb.String(), 1, fleet.Config{RingCap: 128, Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mgr.Close)
	mgr.StepAll(20 * time.Millisecond)

	// Pin the GC for the measurement: a collection landing inside an
	// AllocsPerRun window clears the scratch pool (same mechanism as the
	// race-build skip above), and the refill — a fleet-sized snapshot
	// rebuild — would charge thousands of allocations to whichever run
	// drew the emptied pool, measuring GC scheduling instead of the
	// render path.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	e := New(mgr)
	w := &discardWriter{h: make(http.Header, 4)}
	e.metrics(w, nil) // warm segments, labels and the pooled state
	e.metrics(w, nil)
	hit := testing.AllocsPerRun(20, func() { e.metrics(w, nil) })
	if hit > 1 {
		t.Errorf("cache-hit scrape allocates %v per call, want <= 1 (header only)", hit)
	}

	// One downsample block per run makes every shard stale at every
	// scrape. Ingest is pinned at 0 allocs/op, so the bound measures the
	// full re-render path.
	step := func() {
		mgr.StepAll(time.Millisecond)
		e.metrics(w, nil)
	}
	step()
	render := testing.AllocsPerRun(20, step)
	if n := e.shardRenders.Load(); n < uint64(22*mgr.ShardCount()) {
		t.Fatalf("stepped scrapes re-rendered %d segments, want every shard every scrape", n)
	}
	if render > 1 {
		t.Errorf("full re-render scrape allocates %v per call, want <= 1 (header only)", render)
	}
}
