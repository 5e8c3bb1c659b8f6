// The fleet side of the long-horizon history tier (internal/history):
// each station owns a compressed Series and answers windowed energy
// queries over it.
//
// History is written at the ingest step. Every flush that pushes a
// step's finished points into the ring appends the same points to the
// series in one batched call, under the device's ingest mutex (lock
// order: device mutex, then series lock — close takes them the same
// way). The series is therefore current whenever a step returns, and
// no ring wraparound can lose a point before it reaches history.

package fleet

import (
	"time"

	"repro/internal/history"
)

// EnergyWindow returns the station's summed-power energy over the
// virtual-time window [from, to], in joules: the windowed-query face of
// the interval-read model (two Read calls bracketing a workload). The
// answer includes every ring point produced by the last completed step.
// Integration is trapezoidal with partial-interval clipping at both
// edges; an empty or inverted window is exactly 0 J, never NaN — the
// same zero-interval contract as pmt.Watts.
func (d *Device) EnergyWindow(from, to time.Duration) float64 {
	if to <= from {
		return 0
	}
	began := time.Now()
	j := d.hist.EnergyWindow(from, to)
	d.histQuery.Record(time.Since(began))
	return j
}

// HistoryInto appends the station's stored history points with
// timestamps in [from, to] to dst, oldest first — the decode path
// long-range trace exports use.
func (d *Device) HistoryInto(dst []history.Point, from, to time.Duration) []history.Point {
	return d.hist.PointsInto(dst, from, to)
}

// HistoryStats returns the station's history-tier accounting from the
// series' atomic counters, so it is safe per station per scrape without
// locks.
func (d *Device) HistoryStats() history.Stats {
	return d.hist.Stats()
}

// SyncHistory is a no-op that always returns (0, 0). History is written
// at every ingest step, so there is nothing left to drain; the method
// remains only because perfbench, whose code changes only together with
// the benchmark's definition, still calls it.
func (m *Manager) SyncHistory() (appended int, missed uint64) { return 0, 0 }

// EnergyWindow sums Device.EnergyWindow over the fleet: the total
// energy every current station spent inside [from, to], in joules.
// An empty or inverted window is exactly 0 J.
func (m *Manager) EnergyWindow(from, to time.Duration) float64 {
	var j float64
	for s := range m.shards {
		for _, d := range m.shards[s].list() {
			j += d.EnergyWindow(from, to)
		}
	}
	return j
}

// HistoryStats sums every current station's history-tier accounting —
// the scrape-path aggregate, assembled from atomic counters only.
func (m *Manager) HistoryStats() history.Stats {
	var hs history.Stats
	for s := range m.shards {
		for _, d := range m.shards[s].list() {
			st := d.HistoryStats()
			hs.Points += st.Points
			hs.Appended += st.Appended
			hs.Dropped += st.Dropped
			hs.EvictedPoints += st.EvictedPoints
			hs.Blocks += st.Blocks
			hs.Bytes += st.Bytes
		}
	}
	return hs
}
