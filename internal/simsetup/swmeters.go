// Software-meter stations: the vendor-API emulations of internal/vendorapi
// wrapped as streaming sources, each with a self-driving workload. These
// are the fleet counterparts of the paper's comparison baselines — NVML,
// AMD SMI, the Jetson INA3221 and RAPL — polled at their native refresh
// rates rather than PowerSensor3's 20 kHz.

package simsetup

import (
	"time"

	"repro/internal/gpu"
	"repro/internal/kernels"
	"repro/internal/rng"
	"repro/internal/source"
	"repro/internal/vendorapi"
)

// newSoftwareMeterStation builds one polled-meter station. kind must be
// one of nvml, amdsmi, jetson-ina, rapl (pre-validated by NewStation).
func newSoftwareMeterStation(kind string, seed uint64) source.Source {
	switch kind {
	case "nvml":
		g := gpu.New(gpu.RTX4000Ada(), seed)
		m := vendorapi.NewNVML(g)
		return source.NewPolled(source.PolledConfig{
			Meta: source.Meta{
				Backend:  "nvml",
				RateHz:   rateOf(m.UpdatePeriod),
				Channels: []string{"board"},
			},
			Tick:   newGPUWorkload(g, seed).tick,
			Watts:  m.PowerInstant,
			Joules: m.EnergyJoules,
		})
	case "amdsmi":
		g := gpu.New(gpu.W7700(), seed)
		m := vendorapi.NewAMDSMI(g)
		return source.NewPolled(source.PolledConfig{
			Meta: source.Meta{
				Backend:  "amdsmi",
				RateHz:   rateOf(m.UpdatePeriod),
				Channels: []string{"board"},
			},
			Tick:   newGPUWorkload(g, seed).tick,
			Watts:  m.Power,
			Joules: m.EnergyJoules,
		})
	case "jetson-ina":
		g := gpu.New(gpu.JetsonAGXOrin(), seed)
		m := vendorapi.NewJetsonINA(g)
		return source.NewPolled(source.PolledConfig{
			Meta: source.Meta{
				Backend:  "ina3221",
				RateHz:   rateOf(m.UpdatePeriod),
				Channels: []string{"module"},
			},
			Tick:   newGPUWorkload(g, seed).tick,
			Watts:  m.Power,
			Joules: m.EnergyJoules,
		})
	case "rapl":
		cpu := &vendorapi.CPU{IdleW: 28, TDPW: 125, Noise: rng.New(seed)}
		m := vendorapi.NewRAPL(cpu)
		return source.NewPolled(source.PolledConfig{
			Meta: source.Meta{
				Backend:  "rapl",
				RateHz:   rateOf(m.UpdatePeriod),
				Channels: []string{"package"},
			},
			Tick: newCPUWorkload(cpu, seed).tick,
			// RAPL exposes only the energy counter; power falls out of
			// counter deltas, as real RAPL consumers derive it.
			Joules: m.EnergyJoules,
		})
	}
	panic("simsetup: not a software meter kind: " + kind)
}

// rateOf converts a meter's refresh interval to its polling rate.
func rateOf(period time.Duration) float64 {
	return float64(time.Second) / float64(period)
}

// gpuWorkload launches the same periodic synthetic-FMA duty cycle as the
// PowerSensor3 GPU stations, but directly against the time-functional GPU
// model — no rig, since the meter itself advances the model when polled.
type gpuWorkload struct {
	g     *gpu.GPU
	next  time.Duration
	noise *rng.Source
}

func newGPUWorkload(g *gpu.GPU, seed uint64) *gpuWorkload {
	return &gpuWorkload{g: g, noise: rng.New(seed ^ 0x5eed)}
}

// tick launches every kernel due at or before t, scheduling each at its
// due time so the duty cycle is independent of the polling cadence.
func (w *gpuWorkload) tick(t time.Duration) {
	for w.next <= t {
		k := kernels.SyntheticFMA(w.g.Spec(), 300*time.Millisecond)
		run := w.g.LaunchKernel(k, w.next)
		gap := 200*time.Millisecond + time.Duration(w.noise.Intn(200))*time.Millisecond
		w.next = run.End + gap
	}
}

// cpuWorkload toggles the CPU model between an idle floor and a busy
// plateau with jittered dwell times — a bursty host-side duty cycle for
// the RAPL counter to integrate.
type cpuWorkload struct {
	cpu   *vendorapi.CPU
	next  time.Duration
	noise *rng.Source
}

func newCPUWorkload(cpu *vendorapi.CPU, seed uint64) *cpuWorkload {
	return &cpuWorkload{cpu: cpu, noise: rng.New(seed ^ 0xc9a1)}
}

func (w *cpuWorkload) tick(t time.Duration) {
	for w.next <= t {
		if w.cpu.Util > 0.5 {
			w.cpu.Util = 0.05 + float64(w.noise.Intn(10))/100
			w.next += time.Duration(50+w.noise.Intn(150)) * time.Millisecond
		} else {
			w.cpu.Util = 0.70 + float64(w.noise.Intn(25))/100
			w.next += time.Duration(100+w.noise.Intn(200)) * time.Millisecond
		}
	}
}
