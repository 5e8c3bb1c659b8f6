// Benchmarks that regenerate every table and figure of the paper's
// evaluation. Each benchmark runs a (size-reduced) version of the
// corresponding experiment and reports the headline quantities as custom
// metrics, so `go test -bench=.` reproduces the paper's result set in one
// command. cmd/experiments (without -quick) runs the full paper-sized
// versions.
package repro

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/export"
	"repro/internal/fleet"
)

// BenchmarkTable1Accuracy regenerates Table I: the closed-form worst-case
// accuracy of the four sensor modules.
func BenchmarkTable1Accuracy(b *testing.B) {
	var res experiments.Table1Result
	for i := 0; i < b.N; i++ {
		res = experiments.RunTable1()
	}
	b.ReportMetric(res.Rows[0].PowErr, "12V-worstcase-W")
	b.ReportMetric(res.Rows[1].PowErr, "3.3V-worstcase-W")
}

// BenchmarkFig4ErrorSweep regenerates Fig. 4: the power-error sweep of the
// four module types from negative to positive full-scale current.
func BenchmarkFig4ErrorSweep(b *testing.B) {
	var res experiments.Fig4Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RunFig4(experiments.Fig4Options{Samples: 8 * 1024, StepA: 2.5})
		if err != nil {
			b.Fatal(err)
		}
	}
	worst := 0.0
	for _, sw := range res.Sweeps {
		for _, p := range sw.Points {
			if e := abs(p.MeanErr); e > worst {
				worst = e
			}
		}
	}
	b.ReportMetric(worst, "worst-mean-err-W")
}

// BenchmarkTable2Averaging regenerates Table II: noise versus effective
// sample rate under block averaging.
func BenchmarkTable2Averaging(b *testing.B) {
	var res experiments.Table2Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RunTable2(experiments.Table2Options{Samples: 32 * 1024})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range res.Rows {
		if r.RateKHz == 20 && r.LoadA == 1.0 {
			b.ReportMetric(r.Std, "std-20kHz-W")
		}
		if r.RateKHz == 0.5 && r.LoadA == 1.0 {
			b.ReportMetric(r.Std, "std-0.5kHz-W")
		}
	}
}

// BenchmarkStability regenerates the Section IV-B long-term run (reduced to
// 2 virtual hours per iteration).
func BenchmarkStability(b *testing.B) {
	var res experiments.StabilityResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RunStability(experiments.StabilityOptions{
			Duration: 2 * time.Hour, Interval: 15 * time.Minute, Samples: 8 * 1024,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.MeanFluctuation, "fluctuation-W")
}

// BenchmarkFig5StepResponse regenerates Fig. 5: the 3.3 A → 8 A step at
// 20 kHz.
func BenchmarkFig5StepResponse(b *testing.B) {
	var res experiments.Fig5Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RunFig5()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.RiseSamples), "rise-samples")
	b.ReportMetric(res.HighW-res.LowW, "step-W")
}

// BenchmarkFig7aNvidiaTrace regenerates Fig. 7a: PS3 vs NVML on the
// RTX 4000 Ada.
func BenchmarkFig7aNvidiaTrace(b *testing.B) {
	var res experiments.Fig7Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RunFig7a(experiments.Fig7Options{
			KernelDuration: time.Second, Tail: 800 * time.Millisecond,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.DipsPS3), "dips-ps3")
	b.ReportMetric(float64(res.DipsVendor), "dips-nvml")
	b.ReportMetric(res.PS3Joules/res.TrueJoules, "ps3/true-energy")
}

// BenchmarkFig7bAMDTrace regenerates Fig. 7b: PS3 vs AMD SMI on the W7700.
func BenchmarkFig7bAMDTrace(b *testing.B) {
	var res experiments.Fig7Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RunFig7b(experiments.Fig7Options{
			KernelDuration: time.Second, Tail: 800 * time.Millisecond,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.VendorJoules/res.TrueJoules, "amdsmi/true-energy")
	b.ReportMetric(res.PS3Joules/res.TrueJoules, "ps3/true-energy")
}

// BenchmarkFig8TuningRTX regenerates Fig. 8 on a reduced space (every 17th
// variant, 3 clocks) and reports the headline metrics, including the
// tuning-time speedup the paper quotes as 3.25×.
func BenchmarkFig8TuningRTX(b *testing.B) {
	var res experiments.TuningResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RunFig8(experiments.TuningOptions{
			Subsample: 17, Trials: 3, Clocks: []float64{1485, 1635, 1815},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.FastestTFLOPS, "fastest-TFLOPs")
	b.ReportMetric(res.FastestTFLOPJ, "fastest-TFLOPJ")
	b.ReportMetric(res.Speedup, "tuning-speedup-x")
}

// BenchmarkFig10TuningJetson regenerates Fig. 10 on the Jetson AGX Orin.
func BenchmarkFig10TuningJetson(b *testing.B) {
	var res experiments.TuningResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RunFig10(experiments.TuningOptions{
			Subsample: 17, Trials: 3, Clocks: []float64{408, 816, 1300},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.FastestTFLOPS, "fastest-TFLOPs")
	b.ReportMetric(res.Speedup, "tuning-speedup-x")
}

// BenchmarkFig12aRandomReads regenerates Fig. 12a: SSD random-read power
// and bandwidth versus request size.
func BenchmarkFig12aRandomReads(b *testing.B) {
	var res experiments.Fig12aResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RunFig12a(experiments.Fig12aOptions{
			Sizes: []int{4, 64, 1024, 4096}, PerPoint: 2 * time.Second, IODepth: 8,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	last := res.Points[len(res.Points)-1]
	b.ReportMetric(last.MiBps, "peak-MiBps")
	b.ReportMetric(last.PowerW, "peak-power-W")
	b.ReportMetric(res.Points[0].PowerW, "small-req-power-W")
}

// BenchmarkFig12bRandomWrites regenerates Fig. 12b: sustained random writes
// with GC-induced bandwidth variability against flat power.
func BenchmarkFig12bRandomWrites(b *testing.B) {
	var res experiments.Fig12bResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RunFig12b(experiments.Fig12bOptions{
			Duration: 40 * time.Second, IODepth: 8,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.BandwidthCV, "bandwidth-CV")
	b.ReportMetric(res.PowerCV, "power-CV")
	b.ReportMetric(res.WriteAmp, "write-amplification")
}

// BenchmarkExtSSDHiRes regenerates the §V-C future-work experiment:
// sub-millisecond SSD power analysis.
func BenchmarkExtSSDHiRes(b *testing.B) {
	var res experiments.SSDHiResResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RunSSDHiRes(experiments.SSDHiResOptions{Window: 2 * time.Second})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.HiResP2P, "hires-p2p-W")
	b.ReportMetric(res.CoarseP2P, "coarse-p2p-W")
	b.ReportMetric(res.BurstsPerSecond, "bursts/s")
}

// BenchmarkAblationSamplingRate regenerates the sampling-rate ablation:
// kernel-energy error at the rates of the tools the paper surveys.
func BenchmarkAblationSamplingRate(b *testing.B) {
	var res experiments.AblationRateResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RunAblationSamplingRate(experiments.AblationRateOptions{Kernels: 10})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, row := range res.Rows {
		switch row.RateHz {
		case 20000:
			b.ReportMetric(row.MeanErr*100, "err%-20kHz")
		case 1000:
			b.ReportMetric(row.MeanErr*100, "err%-1kHz")
		case 10:
			b.ReportMetric(row.MeanErr*100, "err%-10Hz")
		}
	}
}

// fleetSpec builds a dev00=kind,... spec of size stations cycling over
// kinds.
func fleetSpec(size int, kinds []string) string {
	spec := ""
	for i := 0; i < size; i++ {
		if i > 0 {
			spec += ","
		}
		spec += fmt.Sprintf("dev%03d=%s", i, kinds[i%len(kinds)])
	}
	return spec
}

// BenchmarkFleetIngest measures steady-state fleet ingest end to end at
// growing fleet sizes: every station is a synthetic 20 kHz source (no
// simulated hardware behind it), so ns/op is the cost of the fleet layer
// itself — batch fill, columnar fold, ring arena push, telemetry publish.
// allocs/op reads 0 until history blocks start to seal, about a virtual
// second in: the steady-state ingest path allocates only at history
// block seals, by contract (see TestStepAllocatesOnlyAtHistorySeals in
// internal/fleet).
func BenchmarkFleetIngest(b *testing.B) {
	for _, size := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("size-%d", size), func(b *testing.B) {
			mgr, err := fleet.FromSpec(fleetSpec(size, []string{"synth"}), 1, fleet.Config{})
			if err != nil {
				b.Fatal(err)
			}
			defer mgr.Close()
			mgr.StepAll(100 * time.Millisecond) // reach steady state
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// One default manager slice per op — the cadence the
				// drive goroutines advance at in production.
				mgr.StepAll(5 * time.Millisecond)
			}
			b.StopTimer()
			// 100 samples per station per 5 ms slice at 20 kHz.
			ingested := float64(size * 100)
			perSample := float64(b.Elapsed().Nanoseconds()) / float64(b.N) / ingested
			b.ReportMetric(perSample, "ns/sample-station")
			b.ReportMetric(ingested*float64(b.N)/b.Elapsed().Seconds(), "samples/s")
		})
	}
}

// BenchmarkFleetScrape measures the fleet telemetry hot path at growing
// fleet sizes: ns/op is the latency of one full /metrics scrape, and the
// custom metrics report how fast the fleet ingests native-rate samples.
// The small sizes run the heterogeneous fleet — PowerSensor3 rigs
// interleaved with polled software meters; the large sizes use synthetic
// stations so hundreds of them build instantly. Scrape latency should
// grow only linearly in stations (flat per station), since a scrape
// touches per-station counters — never a device ingest mutex, and never
// the raw sample stream.
func BenchmarkFleetScrape(b *testing.B) {
	mixed := []string{"rtx4000ada", "jetson", "ssd", "w7700",
		"nvml", "rapl", "amdsmi", "jetson-ina"}
	for _, bc := range []struct {
		size  int
		kinds []string
	}{
		{1, mixed}, {4, mixed}, {16, mixed},
		{64, []string{"synth"}}, {256, []string{"synth"}},
	} {
		b.Run(fmt.Sprintf("size-%d", bc.size), func(b *testing.B) {
			mgr, err := fleet.FromSpec(fleetSpec(bc.size, bc.kinds), 1, fleet.Config{})
			if err != nil {
				b.Fatal(err)
			}
			defer mgr.Close()

			// Ingest rate: wall time to simulate a fixed slice of virtual
			// time across the whole fleet.
			const warmup = 100 * time.Millisecond
			began := time.Now()
			mgr.StepAll(warmup)
			elapsed := time.Since(began).Seconds()
			var ingested uint64
			for _, st := range mgr.Snapshot() {
				ingested += st.Samples
			}
			b.ReportMetric(float64(ingested)/elapsed, "samples/s")
			b.ReportMetric(float64(ingested)/float64(bc.size), "samples/station")

			// Each iteration scrapes a fresh exporter, so it measures the
			// cold render path, label formatting included;
			// BenchmarkFleetScrapeRepeat measures the cached path.
			req := httptest.NewRequest("GET", "/metrics", nil)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				handler := export.New(mgr).Handler()
				b.StartTimer()
				rec := httptest.NewRecorder()
				handler.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					b.Fatalf("scrape status %d", rec.Code)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(bc.size),
				"ns/station")
		})
	}
}

// BenchmarkFleetScrapeRepeat measures the repeat-scrape path: the fleet
// produces no new downsample block between scrapes, so after the first
// render every /metrics response serves from the exporter's
// block-generation body cache — the cost drops from a full render to a
// generation check plus a memcpy. This is the idle-fleet / multi-scraper
// case the cache exists for; compare ns/station against
// BenchmarkFleetScrape (the always-render path) at the same size.
func BenchmarkFleetScrapeRepeat(b *testing.B) {
	for _, size := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("size-%d", size), func(b *testing.B) {
			mgr, err := fleet.FromSpec(fleetSpec(size, []string{"synth"}), 1, fleet.Config{})
			if err != nil {
				b.Fatal(err)
			}
			defer mgr.Close()
			mgr.StepAll(100 * time.Millisecond)
			handler := export.New(mgr).Handler()
			req := httptest.NewRequest("GET", "/metrics", nil)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rec := httptest.NewRecorder()
				handler.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					b.Fatalf("scrape status %d", rec.Code)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(size),
				"ns/station")
		})
	}
}

// discardRW is an http.ResponseWriter that keeps nothing: the large-fleet
// scrape benchmarks measure the render path, not recorder bookkeeping —
// at 10k stations an httptest recorder would reallocate a multi-megabyte
// body copy every iteration and dominate the numbers.
type discardRW struct{ h http.Header }

func (w *discardRW) Header() http.Header         { return w.h }
func (w *discardRW) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardRW) WriteHeader(int)             {}

// shardSizes are the fleet sizes of the sharding benchmark matrix; each
// runs back-to-back as shards-1 (the serial/unsharded manager) and
// shards-8 so the sharded and unsharded rows come from one window.
var shardSizes = []int{256, 1024, 4096, 10240}

// shardedSynthFleet builds size synthetic stations over the given shard
// count, with a modest ring so the 10k fleets fit in memory.
func shardedSynthFleet(b *testing.B, size, shards int) *fleet.Manager {
	b.Helper()
	mgr, err := fleet.FromSpec(fleetSpec(size, []string{"synth"}), 1,
		fleet.Config{Shards: shards, RingCap: 128})
	if err != nil {
		b.Fatal(err)
	}
	return mgr
}

// BenchmarkFleetScrapeColdSharded measures the cold /metrics render — a
// fresh exporter per scrape, so every station's labels are formatted and
// every station rendered — at large fleet sizes, sharded vs unsharded.
// The rows pin that sharding adds no render-path regression; the sharding
// win shows in the BusyStation rows, where the cache makes re-render cost
// proportional to stale shards.
func BenchmarkFleetScrapeColdSharded(b *testing.B) {
	for _, size := range shardSizes {
		for _, shards := range []int{1, 8} {
			b.Run(fmt.Sprintf("size-%d/shards-%d", size, shards), func(b *testing.B) {
				mgr := shardedSynthFleet(b, size, shards)
				defer mgr.Close()
				mgr.StepAll(20 * time.Millisecond)
				req := httptest.NewRequest("GET", "/metrics", nil)
				w := &discardRW{h: make(http.Header, 4)}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					handler := export.New(mgr).Handler()
					b.StartTimer()
					handler.ServeHTTP(w, req)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(size),
					"ns/station")
			})
		}
	}
}

// BenchmarkFleetScrapeBusyStation is the headline sharding scenario: one
// 20 kHz station stays busy while the rest of the fleet (10 Hz software
// meters) sits between sample boundaries, and every iteration advances
// 1 ms of virtual time then scrapes. Unsharded, the busy station's new
// blocks invalidate the whole body and every scrape re-renders all N
// stations; sharded, only the busy station's shard re-renders (~N/8
// stations) and the other segments serve as memcpys. The gap between the
// shards-1 and shards-8 rows at one size is the repeat-scrape cost the
// per-shard generations remove. (Every 100th iteration the 10 Hz meters
// all tick at once and that scrape legitimately re-renders everything —
// included in the mean, as a real fleet would see.)
func BenchmarkFleetScrapeBusyStation(b *testing.B) {
	for _, size := range shardSizes {
		for _, shards := range []int{1, 8} {
			b.Run(fmt.Sprintf("size-%d/shards-%d", size, shards), func(b *testing.B) {
				spec := "busy0=synth"
				for i := 1; i < size; i++ {
					spec += fmt.Sprintf(",idle%d=nvml", i)
				}
				mgr, err := fleet.FromSpec(spec, 1,
					fleet.Config{Shards: shards, RingCap: 128})
				if err != nil {
					b.Fatal(err)
				}
				defer mgr.Close()
				mgr.StepAll(20 * time.Millisecond)
				e := export.New(mgr)
				handler := e.Handler()
				req := httptest.NewRequest("GET", "/metrics", nil)
				w := &discardRW{h: make(http.Header, 4)}
				handler.ServeHTTP(w, req) // cold render outside the timer
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					mgr.StepAll(time.Millisecond)
					handler.ServeHTTP(w, req)
				}
				b.StopTimer()
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(size),
					"ns/station")
			})
		}
	}
}

// BenchmarkFleetIngestSharded extends the steady-state ingest benchmark
// to the sharded manager at large sizes: shards-8 fans each shard's
// stations out to its own persistent step worker (a wash or a handoff
// tax on one core, a scaling lever on many), and allocs/op must read 0
// at every size — the zero-alloc contract extended to the parallel path.
func BenchmarkFleetIngestSharded(b *testing.B) {
	for _, size := range shardSizes {
		for _, shards := range []int{1, 8} {
			b.Run(fmt.Sprintf("size-%d/shards-%d", size, shards), func(b *testing.B) {
				mgr := shardedSynthFleet(b, size, shards)
				defer mgr.Close()
				mgr.StepAll(20 * time.Millisecond)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					mgr.StepAll(5 * time.Millisecond)
				}
				b.StopTimer()
				ingested := float64(size * 100) // 100 samples/station per 5ms at 20kHz
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/ingested,
					"ns/sample-station")
			})
		}
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
