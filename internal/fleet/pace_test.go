package fleet

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/source"
)

// tickSource is a 100 Hz constant-power meter whose reads cost almost
// nothing, so a fleet of them measures the pacer rather than the sources.
type tickSource struct {
	now, last time.Duration
	joule     float64
}

const tickPeriod = 10 * time.Millisecond

func (s *tickSource) Meta() source.Meta {
	return source.Meta{Backend: "tick", RateHz: 100, Channels: []string{"p"}}
}
func (s *tickSource) Now() time.Duration { return s.now }
func (s *tickSource) ReadInto(d time.Duration, b *source.Batch) error {
	b.Reset(1)
	s.now += d
	for s.last+tickPeriod <= s.now {
		s.last += tickPeriod
		b.Append(s.last, []float64{5}, 5)
		s.joule += 5 * tickPeriod.Seconds()
	}
	return nil
}
func (s *tickSource) Joules() float64 { return s.joule }
func (s *tickSource) Resyncs() int    { return 0 }
func (s *tickSource) Close()          {}

// nowSpread returns the earliest and latest virtual time across the fleet.
func nowSpread(m *Manager) (lo, hi time.Duration) {
	for i, st := range m.Snapshot() {
		if i == 0 || st.Now < lo {
			lo = st.Now
		}
		if st.Now > hi {
			hi = st.Now
		}
	}
	return lo, hi
}

// TestStartPacesOneLoop runs Start's pacer at 4× real time on a fleet
// stepped serially and on one large enough for the shard workers. Either
// way virtual time tracks wall × rate (or the lateness histogram reports
// the lag), every station stops at the same virtual time, the histogram
// gains one record per fleet quantum rather than one per station, and
// Stop returns promptly with a second Start resuming where the first
// left off.
func TestStartPacesOneLoop(t *testing.T) {
	const (
		rate  = 4
		slice = time.Millisecond
		run   = 300 * time.Millisecond // wall time per run
	)
	for _, c := range []struct {
		name     string
		stations int
		workers  bool
	}{
		{"serial", stepParallelMin / 4, false},
		{"workers", stepParallelMin, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			m := NewManager(Config{Rate: rate, Slice: slice})
			t.Cleanup(m.Close)
			for i := 0; i < c.stations; i++ {
				if _, err := m.Add(fmt.Sprintf("t%03d", i), "tick", &tickSource{}); err != nil {
					t.Fatal(err)
				}
			}

			var start time.Duration
			var before, after obs.HistSnapshot
			for round := 1; round <= 2; round++ {
				m.PaceLatenessHist().Snapshot(&before)
				began := time.Now()
				m.Start()
				// The schedule starts when the pacer goroutine first runs,
				// which a loaded host may delay: measure tracking from the
				// first quantum seen.
				waitFor(t, 5*time.Second, "first quantum", func() bool {
					lo, _ := nowSpread(m)
					return lo > start
				})
				pacedFrom := time.Now()
				v0, _ := nowSpread(m)
				time.Sleep(run)
				if st := m.Snapshot()[0]; st.State != "started" {
					t.Errorf("round %d: running state = %q, want started", round, st.State)
				}
				stopAt := time.Now()
				m.Stop()
				if d := time.Since(stopAt); d > 250*time.Millisecond {
					t.Errorf("round %d: Stop took %v", round, d)
				}
				wall := time.Since(began)

				// Stop waits out the in-flight quantum, so every station has
				// been stepped by the same quanta.
				lo, hi := nowSpread(m)
				if lo != hi {
					t.Errorf("round %d: stopped stations span %v..%v, want one shared time", round, lo, hi)
				}
				virtual := lo - start
				// The pacer never runs ahead of its schedule (one quantum
				// steps before the first wait).
				if ahead := time.Duration(rate*wall) + slice; virtual > ahead {
					t.Errorf("round %d: %v virtual in %v wall, ahead of %v at rate %d",
						round, virtual, wall, ahead, rate)
				}
				// A loaded host, say a race build beside other test
				// binaries, may not fit 64 station steps into the 250 µs
				// quantum budget and fall behind — but then the lateness
				// histogram must say so: the last boundary before Stop was
				// recorded at least the lag minus one quantum's run time
				// late.
				m.PaceLatenessHist().Snapshot(&after)
				var maxLate time.Duration
				for i := range after.Buckets {
					if after.Buckets[i] > before.Buckets[i] {
						maxLate = obs.BucketBound(i)
					}
				}
				paced := stopAt.Sub(pacedFrom)
				if lag := paced - (lo-v0)/rate; lag > paced/10 && maxLate < lag/2 {
					t.Errorf("round %d: %v virtual in %v wall is %v behind, yet the worst lateness recorded is %v",
						round, lo-v0, paced, lag, maxLate)
				}
				quanta := uint64(virtual / slice)
				if got := after.Count - before.Count; got+1 < quanta || got > quanta {
					t.Errorf("round %d: %d lateness records for %d quanta of %d stations",
						round, got, quanta, c.stations)
				}
				if st := m.Snapshot()[0]; st.State != "adopted" {
					t.Errorf("round %d: stopped state = %q, want adopted", round, st.State)
				}
				start = lo
			}

			m.stepMu.Lock()
			workers := m.workersOn
			m.stepMu.Unlock()
			if workers != c.workers {
				t.Errorf("shard workers running = %v, want %v", workers, c.workers)
			}
		})
	}
}
