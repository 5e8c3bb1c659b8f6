// This file is the fleet-construction half of the package: the named,
// self-driving measurement stations the fleet manager (internal/fleet)
// owns. Each station bundles a simulated device-under-test, a measurement
// backend exposed as a streaming source (a PowerSensor3 rig or a polled
// software meter — see internal/source), and a repeating workload so the
// power trace stays interesting without external stimulus — periodic FMA
// kernel launches on GPUs and SoCs, random-read bursts on the SSD, duty
// cycles on the RAPL-metered CPU.

package simsetup

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/pipeline"
	"repro/internal/rig"
	"repro/internal/rng"
	"repro/internal/source"
	"repro/internal/ssd"
)

// The PowerSensor3-instrumented stations below (gpuStation, ssdStation)
// implement source.Driver: a device-under-test with an open sensor,
// advanced in virtual time. Advance moves DUT and sensor together,
// generating (and processing) the 20 kHz sample stream; implementations
// may overshoot d slightly to finish an in-flight operation.

// FleetMember is one named station of a fleet.
type FleetMember struct {
	Name string
	Kind string // the spec kindspec: rtx4000ada, nvml, "rapl|ratelimit:100", ...
	Src  source.Source
}

// DefaultFleetSpec is the fleet cmd/psd and the examples serve when no
// -fleet flag is given: two discrete GPUs, one SoC and one SSD measured by
// PowerSensor3, two software meters — the NVML counter shadowing the
// first GPU's model and a RAPL-metered host CPU — plus two derived views:
// a 1 kHz resampled, recalibrated view of the first GPU's rig (@0 pins it
// to gpu0's seed, so it is the same rig) and the RAPL meter rate-limited
// to 100 Hz with sampling-overhead accounting.
const DefaultFleetSpec = "gpu0=rtx4000ada,gpu1=w7700,soc0=jetson,ssd0=ssd," +
	"gpu0sw=nvml,cpu0=rapl," +
	"gpu0lo=rtx4000ada@0|resample:1000|calib:0.98:0.25,cpu0lim=rapl@5|ratelimit:100"

// FleetKinds lists the accepted station kinds: the PowerSensor3-
// instrumented rigs first, then the software-meter emulations ("jetson"
// is the PowerSensor3-on-USB-C SoC rig; "jetson-ina" the board's own
// INA3221 rail monitor), then the synthetic waveform station used for
// fleet-scale benchmarking.
func FleetKinds() []string {
	return []string{
		"rtx4000ada", "w7700", "jetson", "ssd",
		"nvml", "amdsmi", "jetson-ina", "rapl",
		"synth",
	}
}

// ParseFleet builds the stations described by spec. It is THE reference
// for the fleet-spec grammar — cmd/psd's -fleet flag, its
// POST /api/fleet/add endpoint and examples/fleet all speak exactly this
// syntax:
//
//	spec     := entry ("," entry)*
//	entry    := name "=" kindspec
//	kindspec := kind ["@" index] ("|" stage)*
//	stage    := "resample:" HZ          derived view at HZ (energy-
//	                                    conserving bin averaging,
//	                                    markers remapped)
//	          | "calib:" GAIN [":" OFFSET]  w' = GAIN*w + OFFSET on every channel
//	          | "ratelimit:" HZ         cap the delivered rate at HZ and
//	                                    account sampling overhead
//	          | "smooth:" DUR           EWMA with time constant DUR
//	                                    (a Go duration, e.g. 10ms)
//	          | "dropout:" P ":" DUR    fault: each DUR-wide window goes
//	                                    dark with probability P
//	          | "stuck:" P ":" DUR      fault: flatlined last-value repeats
//	                                    through faulted windows
//	          | "spike:" P ":" MAG      fault: each sample glitches ×MAG
//	                                    with probability P (MAG > 0, != 1)
//	          | "skew:" PPM             fault: clock drift, PPM parts per
//	                                    million fast (+) or slow (-)
//	          | "jitter:" SD            fault: Gaussian timestamp noise of
//	                                    deviation SD (a Go duration)
//
// Every numeric argument must be finite. HZ must lie in [MinStageHz,
// MaxStageHz].
//
// The fault stages inject the reproducible failure modes the fleet's
// health watchdog detects (see internal/pipeline's fault stages and
// internal/fleet's health states). Their randomness is pinned to the
// station's simulation seed and the stage's position in the kindspec, so
// a faulted fleet spec replays the exact same failure scenario every run.
//
// kind is one of FleetKinds: the PowerSensor3-instrumented rigs
// rtx4000ada, w7700, jetson, ssd (20 kHz); the software meters nvml
// (~10 Hz), amdsmi (~1 kHz), jetson-ina (~10 Hz), rapl (~1 kHz); and
// synth, the pure-software 20 kHz waveform station for fleet-scale load
// tests.
//
// Station names must be unique and non-empty. Each station's simulation
// seed derives from the base seed and its position in the spec, so fleets
// are reproducible but rigs decorrelated. "@index" overrides the position
// with an explicit seed index: two same-kind stations sharing an index
// are the same simulated rig, which is how a raw station and its derived
// view serve side by side —
//
//	gpu0=rtx4000ada,gpu0lo=rtx4000ada@0|resample:1000|calib:0.98
//
// serves gpu0's native 20 kHz stream and, concurrently, the same rig
// resampled to 1 kHz with a 0.98 gain trim. (With real hardware the
// derived view would tee the one sensor stream; in the simulator,
// seed-pinning reproduces the rig exactly.) Stages apply left to right,
// innermost first: "rapl|ratelimit:100|smooth:50ms" throttles the RAPL
// meter to 100 Hz, then smooths the kept samples.
func ParseFleet(spec string, seed uint64) ([]FleetMember, error) {
	var members []FleetMember
	// A later entry failing must not leak the stations already built.
	fail := func(err error) ([]FleetMember, error) {
		for _, m := range members {
			m.Src.Close()
		}
		return nil, err
	}
	seen := make(map[string]bool)
	for i, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		name, kind, ok := strings.Cut(field, "=")
		if !ok || name == "" {
			return fail(fmt.Errorf("fleet spec entry %q: want name=kindspec", field))
		}
		if seen[name] {
			return fail(fmt.Errorf("fleet spec: duplicate station %q", name))
		}
		seen[name] = true
		src, err := BuildStation(kind, seed, i)
		if err != nil {
			return fail(fmt.Errorf("station %q: %w", name, err))
		}
		members = append(members, FleetMember{Name: name, Kind: kind, Src: src})
	}
	if len(members) == 0 {
		return nil, fmt.Errorf("fleet spec %q describes no stations", spec)
	}
	return members, nil
}

// StationSeed derives station index's simulation seed from the fleet
// base seed — the derivation ParseFleet applies per spec position and
// cmd/psd's hot-add endpoint applies per adoption, so rigs decorrelate
// the same way however they join the fleet.
func StationSeed(base uint64, index int) uint64 {
	return base + uint64(index)*1000003
}

// BuildStation builds one station from a kindspec — the full
// kind["@"index]("|"stage)* form of a ParseFleet entry's right-hand side
// (see ParseFleet for the grammar). base and index feed StationSeed
// unless the kindspec pins "@index" explicitly. Stage arguments are
// validated here, so malformed specs return errors instead of reaching
// the pipeline constructors' panics.
func BuildStation(kindspec string, base uint64, index int) (source.Source, error) {
	parts := strings.Split(kindspec, "|")
	kind := parts[0]
	if at := strings.IndexByte(kind, '@'); at >= 0 {
		idx, err := strconv.Atoi(kind[at+1:])
		if err != nil || idx < 0 {
			return nil, fmt.Errorf("kindspec %q: want a non-negative seed index after @", kindspec)
		}
		kind, index = kind[:at], idx
	}
	seed := StationSeed(base, index)
	stages, err := parseStages(parts[1:], seed)
	if err != nil {
		return nil, fmt.Errorf("kindspec %q: %w", kindspec, err)
	}
	src, err := NewStation(kind, seed)
	if err != nil {
		return nil, err
	}
	return pipeline.Chain(src, stages...), nil
}

// MinStageHz and MaxStageHz bound the HZ of a resample or ratelimit
// stage. Above the inner rate both stages pass samples through, so 1 MHz
// — fifty times PowerSensor3's 20 kHz — loses nothing, while an
// unbounded rate overflows the fleet's per-step batch sizing. Below 1 mHz
// (one sample per ~17 minutes) the stage's sample period would soon
// overflow a time.Duration.
const (
	MinStageHz = 1e-3
	MaxStageHz = 1e6
)

// stageSeed derives a fault stage's rng seed from the station seed and
// the stage's 1-based position in the kindspec, so two fault stages on
// one station draw decorrelated streams while the whole scenario stays a
// pure function of the fleet seed. The multiplier is the splitmix64
// increment — consecutive positions land far apart.
func stageSeed(station uint64, pos int) uint64 {
	return station ^ (uint64(pos) * 0x9e3779b97f4a7c15)
}

// parseStages translates the "|"-separated stage specs of a kindspec into
// pipeline stages, validating every argument. Errors name the offending
// token and its 1-based position in the stage list, so a long chain's bad
// stage is findable without counting pipes. seed (the station's) pins the
// fault stages' randomness via stageSeed.
func parseStages(specs []string, seed uint64) ([]pipeline.Stage, error) {
	var stages []pipeline.Stage
	for i, s := range specs {
		pos := i + 1
		bad := func(want string) error {
			return fmt.Errorf("stage %d %q: want %s", pos, s, want)
		}
		name, arg, _ := strings.Cut(s, ":")
		switch name {
		case "resample":
			hz, err := parseFinite(arg)
			if err != nil || hz < MinStageHz || hz > MaxStageHz {
				return nil, bad("resample:HZ with HZ in [1e-3, 1e6]")
			}
			stages = append(stages, pipeline.Resample(hz))
		case "calib":
			gainStr, offStr, hasOff := strings.Cut(arg, ":")
			gain, err := parseFinite(gainStr)
			if err != nil {
				return nil, bad("calib:GAIN[:OFFSET] with finite GAIN and OFFSET")
			}
			offset := 0.0
			if hasOff {
				if offset, err = parseFinite(offStr); err != nil {
					return nil, bad("calib:GAIN[:OFFSET] with finite GAIN and OFFSET")
				}
			}
			stages = append(stages, pipeline.Calibrate(gain, offset))
		case "ratelimit":
			hz, err := parseFinite(arg)
			if err != nil || hz < MinStageHz || hz > MaxStageHz {
				return nil, bad("ratelimit:HZ with HZ in [1e-3, 1e6]")
			}
			stages = append(stages, pipeline.RateLimit(hz))
		case "smooth":
			tau, err := time.ParseDuration(arg)
			if err != nil || tau <= 0 {
				return nil, bad("smooth:DUR with a positive Go duration")
			}
			stages = append(stages, pipeline.Smooth(tau))
		case "dropout":
			p, dur, err := parseProbDur(arg)
			if err != nil {
				return nil, bad("dropout:P:DUR with P in [0,1] and DUR a positive Go duration")
			}
			stages = append(stages, pipeline.Dropout(p, dur, stageSeed(seed, pos)))
		case "stuck":
			p, dur, err := parseProbDur(arg)
			if err != nil {
				return nil, bad("stuck:P:DUR with P in [0,1] and DUR a positive Go duration")
			}
			stages = append(stages, pipeline.Stuck(p, dur, stageSeed(seed, pos)))
		case "spike":
			pStr, magStr, hasMag := strings.Cut(arg, ":")
			p, err := parseFinite(pStr)
			if err != nil || p < 0 || p > 1 || !hasMag {
				return nil, bad("spike:P:MAG with P in [0,1]")
			}
			mag, err := parseFinite(magStr)
			if err != nil || mag <= 0 || mag == 1 {
				return nil, bad("spike:P:MAG with MAG > 0 and != 1")
			}
			stages = append(stages, pipeline.Spike(p, mag, stageSeed(seed, pos)))
		case "skew":
			ppm, err := parseFinite(arg)
			if err != nil || ppm <= -1e6 || ppm >= 1e6 {
				return nil, bad("skew:PPM with |PPM| < 1e6")
			}
			stages = append(stages, pipeline.Skew(ppm))
		case "jitter":
			sd, err := time.ParseDuration(arg)
			if err != nil || sd <= 0 {
				return nil, bad("jitter:SD with SD a positive Go duration")
			}
			stages = append(stages, pipeline.Jitter(sd, stageSeed(seed, pos)))
		default:
			return nil, fmt.Errorf(
				"stage %d %q: unknown stage (have resample, calib, ratelimit, smooth, "+
					"dropout, stuck, spike, skew, jitter)", pos, s)
		}
	}
	return stages, nil
}

// parseFinite parses a stage's numeric argument, refusing NaN and ±Inf:
// strconv.ParseFloat accepts both spellings, and every range check on
// the result is false for NaN.
func parseFinite(s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
		err = fmt.Errorf("non-finite %q", s)
	}
	return v, err
}

// parseProbDur parses the shared "P:DUR" argument form of the windowed
// fault stages.
func parseProbDur(arg string) (float64, time.Duration, error) {
	pStr, durStr, ok := strings.Cut(arg, ":")
	if !ok {
		return 0, 0, fmt.Errorf("missing duration")
	}
	p, err := parseFinite(pStr)
	if err != nil || p < 0 || p > 1 {
		return 0, 0, fmt.Errorf("bad probability %q", pStr)
	}
	dur, err := time.ParseDuration(durStr)
	if err != nil || dur <= 0 {
		return 0, 0, fmt.Errorf("bad duration %q", durStr)
	}
	return p, dur, nil
}

// NewStation builds one self-driving station of the given plain kind as a
// streaming source (no pipe stages — BuildStation layers those).
// PowerSensor3-instrumented rigs stream at the native 20 kHz with
// per-rail channel labels; software-meter kinds poll the vendor emulation
// at its own refresh rate.
func NewStation(kind string, seed uint64) (source.Source, error) {
	switch kind {
	case "rtx4000ada", "w7700":
		r, err := GPURig(kind, seed)
		if err != nil {
			return nil, err
		}
		return source.NewSensor(newGPUStation(r, seed),
			[]string{"slot3v3", "slot12", "pcie8pin"}), nil
	case "jetson":
		r, err := GPURig(kind, seed)
		if err != nil {
			return nil, err
		}
		return source.NewSensor(newGPUStation(r, seed), []string{"usbc"}), nil
	case "ssd":
		r, err := NewDiskRig(seed, false)
		if err != nil {
			return nil, err
		}
		return source.NewSensor(newSSDStation(r, seed),
			[]string{"slot3v3", "slot12"}), nil
	case "nvml", "amdsmi", "jetson-ina", "rapl":
		return newSoftwareMeterStation(kind, seed), nil
	case "synth":
		return newSynthStation(seed), nil
	default:
		return nil, fmt.Errorf("unknown station kind %q (have %s)",
			kind, strings.Join(FleetKinds(), ", "))
	}
}

// gpuStation keeps a GPU rig busy with a periodic synthetic-FMA kernel:
// launch, let the governor settle back to idle, relaunch — the paper's
// Fig. 7 duty cycle, repeated forever.
type gpuStation struct {
	rig    *rig.Rig
	kernel func() // launches the next kernel at the rig's current time
	next   time.Duration
}

func newGPUStation(r *rig.Rig, seed uint64) *gpuStation {
	st := &gpuStation{rig: r}
	noise := rng.New(seed ^ 0x5eed)
	st.kernel = func() {
		k := kernels.SyntheticFMA(r.GPU.Spec(), 300*time.Millisecond)
		run := r.GPU.LaunchKernel(k, r.Now())
		// Idle gap before the next launch, jittered so fleet stations
		// do not fire in lockstep.
		gap := 200*time.Millisecond + time.Duration(noise.Intn(200))*time.Millisecond
		st.next = run.End + gap
	}
	return st
}

func (st *gpuStation) Sensor() *core.PowerSensor { return st.rig.Sensor() }
func (st *gpuStation) Now() time.Duration        { return st.rig.Now() }
func (st *gpuStation) Close()                    { st.rig.Close() }

func (st *gpuStation) Advance(d time.Duration) {
	target := st.rig.Now() + d
	for {
		now := st.rig.Now()
		if now >= target {
			return
		}
		if now >= st.next {
			st.kernel()
		}
		step := target - now
		if until := st.next - now; until > 0 && until < step {
			step = until
		}
		st.rig.Idle(step)
	}
}

// ssdStation drives the disk rig with short random-read bursts separated by
// idle gaps — enough I/O that die activity shows in the power trace without
// saturating the drive.
type ssdStation struct {
	rig   *DiskRig
	noise *rng.Source
	// idleTo is the end of the idle gap after the last burst: the next
	// burst is submitted there, whichever Advance call reaches it, so the
	// workload does not depend on how callers slice time.
	idleTo time.Duration
}

func newSSDStation(r *DiskRig, seed uint64) *ssdStation {
	return &ssdStation{rig: r, noise: rng.New(seed ^ 0xd15c)}
}

func (st *ssdStation) Sensor() *core.PowerSensor { return st.rig.PS }
func (st *ssdStation) Now() time.Duration        { return st.rig.Disk.Now() }
func (st *ssdStation) Close()                    { st.rig.PS.Close() }

func (st *ssdStation) Advance(d time.Duration) {
	disk := st.rig.Disk
	target := disk.Now() + d
	const pages = 32 // 128 KiB request
	for disk.Now() < target {
		if disk.Now() >= st.idleTo {
			maxPage := disk.Config().LogicalPages - pages
			c := disk.Submit(ssd.Request{
				Page:   st.noise.Intn(maxPage),
				Pages:  pages,
				Submit: disk.Now(),
			})
			st.rig.Sync(c.Done)
			// Idle gap between bursts, jittered per station.
			st.idleTo = c.Done + time.Duration(1+st.noise.Intn(3))*time.Millisecond
		}
		to := min(st.idleTo, target)
		disk.Advance(to)
		st.rig.Sync(to)
	}
}
