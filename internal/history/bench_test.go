package history

import (
	"math"
	"testing"
	"time"

	"repro/internal/rng"
)

// fleetLikeWatts is the benchmark signal: the board-power shape the
// downsample ring feeds the tier in production — workload plateaus with
// sinusoidal swing and block-average noise.
func fleetLikeWatts(r *rng.Source, i int) float64 {
	base := 55.0
	if (i/3000)%2 == 1 {
		base = 78
	}
	return base + 2*math.Sin(float64(i)/40) + 0.3*r.Float64()
}

// BenchmarkHistoryAppend measures steady-state append cost on the
// default configuration and reports the achieved compression ratio,
// which perfbench reports as history.bytes_per_point. Allocations
// amortise to ~0: only a block seal (every 1024 appends) allocates.
func BenchmarkHistoryAppend(b *testing.B) {
	s := New(Config{})
	r := rng.New(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Append(time.Duration(i)*time.Millisecond, fleetLikeWatts(r, i))
	}
	b.StopTimer()
	st := s.Stats()
	if st.Bytes > 0 {
		b.ReportMetric(st.Ratio(), "ratio")
		b.ReportMetric(float64(st.Bytes)/float64(st.Points), "B/point")
	}
}

// BenchmarkHistoryAppendN measures the fleet's write path: AppendN in
// batches of five points — the points one default 5 ms ingest step
// finishes — over precomputed signal values, so only the tier is timed.
// ns/op is per point.
func BenchmarkHistoryAppendN(b *testing.B) {
	const batch, n = 5, 5 << 12
	r := rng.New(1)
	ws := make([]float64, n)
	for i := range ws {
		ws[i] = fleetLikeWatts(r, i)
	}
	var ts [batch]time.Duration
	s := New(Config{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += batch {
		for k := range ts {
			ts[k] = time.Duration(i+k) * time.Millisecond
		}
		s.AppendN(ts[:], ws[i%n:i%n+batch])
	}
}

// BenchmarkEnergyWindow measures a windowed energy query over a series
// holding 100k points (~100 s of 1 ms ring output), with window edges
// cutting into sealed blocks on both sides — the worst case that still
// profits from the per-block energy sums.
func BenchmarkEnergyWindow(b *testing.B) {
	s := New(Config{})
	r := rng.New(2)
	const n = 100000
	for i := 0; i < n; i++ {
		s.Append(time.Duration(i)*time.Millisecond, fleetLikeWatts(r, i))
	}
	from := 7*time.Second + 300*time.Microsecond
	to := 93*time.Second + 700*time.Microsecond
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += s.EnergyWindow(from, to)
	}
	_ = sink
}
