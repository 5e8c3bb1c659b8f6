package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"time"

	"repro/internal/fleet"
	"repro/internal/pipeline"
)

// How a workload advances its fleets during the measured phase.
const (
	driveStep  = iota // one driver: StepAll(slice) unpaced, SyncHistory every stepSync
	driveCycle        // closed loop: step every leaf, Head.PollOnce, GET head /metrics
)

const (
	slice  = 5 * time.Millisecond // psd -slice
	warmup = 2 * time.Second      // psd -warmup
)

// plan is one workload's deployment and traffic.
type plan struct {
	name        string
	why         string
	leaves      []leafPlan
	drive       int
	head        bool // a federation head runs over the leaves
	headWorkers int  // federation.Config.Workers; 0 is the default
	mix         []opRate
	workers     int    // open-loop request goroutines
	churnBase   string // base kind of the stations churned on the first leaf
	canary      string // driveCycle: the busy leaf's station the head must show fresh
	headline    string // metric bench.trace_overhead_pct compares
}

var workloadNames = []string{"ingest-20k", "federated"}

// newPlan builds workload name from seed. scale multiplies every fleet
// size (the benchmark's own tests run tiny fleets).
func newPlan(name string, seed uint64, scale float64) (*plan, error) {
	rng := rand.New(rand.NewPCG(seed, 0x70657266))
	sized := func(n, min int) int {
		return max(min, int(math.Round(float64(n)*scale)))
	}
	switch name {
	case "ingest-20k":
		return &plan{
			name: name,
			why:  "512 stations at 20 kHz stepped unpaced beside one scraper: source, pipeline, fold, ring and history drain carry the CPU, and every shard is stale at every scrape",
			leaves: []leafPlan{{
				name:     "leaf",
				cfg:      fleet.Config{Slice: slice, Block: 20, RingCap: 2048, Shards: 8},
				stations: rigStations(rng, "st", sized(512, 8), true),
			}},
			drive: driveStep,
			// One Prometheus-style scraper, and energy queries at twice its
			// rate: at 10/s the energy p95 rested on ~25 tail samples a run
			// and spread by 0.14 across seeds; each query costs well under
			// a millisecond of CPU, so 20/s leaves the ingest as it was.
			mix: []opRate{
				{kind: opLeafMetrics, perS: 10, class: "scrape"},
				{kind: opLeafEnergy, perS: 20, class: "energy"},
			},
			workers:   2,
			churnBase: "rtx4000ada",
			headline:  "ingest_msamples_per_s",
		}, nil
	case "federated":
		busy := []stationSpec{{name: "canary", kindspec: "rtx4000ada", base: "rtx4000ada",
			off: rng.IntN(1 << 30)}}
		busy = append(busy, rigStations(rng, "st", sized(64, 4)-1, true)...)
		quiet := func(prefix string) leafPlan {
			return leafPlan{
				name:     prefix,
				cfg:      fleet.Config{Slice: slice, Block: 20, RingCap: 256, Shards: 8},
				stations: slowMeterStations(rng, "m", sized(512, 8)),
			}
		}
		return &plan{
			name: name,
			why:  "one head over three loopback leaves, two quiet, in a closed step-poll-scrape loop with energy drill-downs: head poll and decode, leaf /api/fleet, LeafRenderer and ETag/304 dominate",
			leaves: []leafPlan{
				{
					name:     "busy",
					cfg:      fleet.Config{Slice: slice, Block: 20, RingCap: 2048, Shards: 8},
					stations: busy,
				},
				quiet("quiet-a"),
				quiet("quiet-b"),
			},
			drive:       driveCycle,
			head:        true,
			headWorkers: 2,
			// Energy drill-downs run in the closed loop (driveCycles); a
			// light scraper on the busy leaf times its exporter.
			mix:       []opRate{{kind: opLeafMetrics, perS: 5}},
			workers:   1,
			churnBase: "rtx4000ada",
			canary:    "canary",
			headline:  "data_age_p50_ms",
		}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// rigStations draws n 20 kHz PowerSensor3 stations: a quarter of each rig
// kind, and of each kind a quarter behind resample:1000|calib:0.98:0.25
// and, with faults, an eighth behind a dropout or spike stage. The seed
// shuffles which station takes which role; the mix of kinds and roles is
// fixed, so every seed offers the daemon the same load.
func rigStations(rng *rand.Rand, prefix string, n int, faults bool) []stationSpec {
	rigs := []string{"rtx4000ada", "w7700", "jetson", "ssd"}
	slots := rng.Perm(n)
	out := make([]stationSpec, 0, n)
	for i := 0; i < n; i++ {
		kind := slots[i] % len(rigs)
		base := rigs[kind]
		st := stationSpec{name: fmt.Sprintf("%s-%04d", prefix, i), kindspec: base, base: base,
			off: rng.IntN(1 << 30)}
		// rank orders the stations of one kind; ofKind counts them.
		rank, ofKind := slots[i]/len(rigs), (n-kind+len(rigs)-1)/len(rigs)
		switch {
		case rank < ofKind/4:
			st.kindspec += "|resample:1000|calib:0.98:0.25"
			st.stages = []pipeline.Stage{pipeline.Resample(1000), pipeline.Calibrate(0.98, 0.25)}
		case rank < ofKind/4+ofKind/8 && faults:
			st = withFault(rng, st, rank%2 == 0)
		}
		out = append(out, st)
	}
	return out
}

// slowMeterStations draws n 10 Hz meters, half nvml and half jetson-ina.
func slowMeterStations(rng *rand.Rand, prefix string, n int) []stationSpec {
	roles := rng.Perm(n)
	out := make([]stationSpec, 0, n)
	for i := 0; i < n; i++ {
		base := "nvml"
		if roles[i] < n/2 {
			base = "jetson-ina"
		}
		out = append(out, stationSpec{name: fmt.Sprintf("%s-%04d", prefix, i), kindspec: base,
			base: base, off: rng.IntN(1 << 30)})
	}
	return out
}

// withFault puts a seeded dropout (or spike) stage on st.
func withFault(rng *rand.Rand, st stationSpec, dropout bool) stationSpec {
	seed := rng.Uint64()
	st.faulted = true
	if dropout {
		st.kindspec += "|dropout:0.05:5ms"
		st.stages = append(st.stages, pipeline.Dropout(0.05, 5*time.Millisecond, seed))
	} else {
		st.kindspec += "|spike:0.001:8"
		st.stages = append(st.stages, pipeline.Spike(0.001, 8, seed))
	}
	return st
}

// stationNames lists a leaf's station names, sorted.
func stationNames(lp leafPlan) []string {
	names := make([]string, len(lp.stations))
	for i, st := range lp.stations {
		names[i] = st.name
	}
	sort.Strings(names)
	return names
}
