// Package vendorapi emulates the on-board power sensors and vendor APIs the
// paper compares PowerSensor3 against (Sections II-A and V):
//
//   - NVML on NVIDIA GPUs: an "instantaneous" reading that refreshes at
//     about 10 Hz, and the "legacy" average reading — a sliding-window
//     average, also refreshed at ~10 Hz, that smears out all fine-grained
//     behaviour (Fig. 7a).
//   - ROCm SMI / AMD SMI on AMD GPUs: a fast, accurate on-board sensor that
//     tracks true power closely (Fig. 7b) — the two APIs return identical
//     values despite different interfaces.
//   - The Jetson INA3221 rail monitor: ~10 Hz and module-only, blind to the
//     carrier board (Section V-B).
//   - RAPL for CPUs: an energy counter updated at ~1 kHz.
//
// Every meter polls a shared gpu.GPU (or a CPU model) in virtual time; a
// reading only changes when the underlying sensor's refresh interval has
// elapsed, which is precisely the artifact the paper demonstrates.
package vendorapi

import (
	"time"

	"repro/internal/gpu"
	"repro/internal/rng"
)

// Reading is one vendor-API sample.
type Reading struct {
	Time  time.Duration
	Watts float64
}

// NVML emulates the NVIDIA management library's power queries.
type NVML struct {
	gpu *gpu.GPU

	// UpdatePeriod is the on-board controller's refresh interval (~100 ms).
	UpdatePeriod time.Duration
	// AvgWindow is the averaging window of the legacy reading.
	AvgWindow time.Duration

	lastUpdate time.Duration
	instant    float64
	history    []Reading // instantaneous history for the window average
	avg        float64
	energyJ    float64
	haveFirst  bool
}

// NewNVML attaches an NVML emulation to g.
func NewNVML(g *gpu.GPU) *NVML {
	return &NVML{gpu: g, UpdatePeriod: 100 * time.Millisecond, AvgWindow: time.Second}
}

// poll refreshes the cached readings if the update period has elapsed.
func (n *NVML) poll(t time.Duration) {
	if n.haveFirst && t < n.lastUpdate+n.UpdatePeriod {
		return
	}
	// Catch up in whole update periods so energy integrates at 10 Hz.
	if !n.haveFirst {
		n.lastUpdate = t
		n.instant = n.gpu.PowerAt(t)
		n.history = append(n.history, Reading{t, n.instant})
		n.haveFirst = true
		return
	}
	for t >= n.lastUpdate+n.UpdatePeriod {
		n.lastUpdate += n.UpdatePeriod
		p := n.gpu.PowerAt(n.lastUpdate)
		n.energyJ += p * n.UpdatePeriod.Seconds()
		n.instant = p
		n.history = append(n.history, Reading{n.lastUpdate, p})
	}
	// Trim history beyond the averaging window.
	cut := 0
	for cut < len(n.history) && n.history[cut].Time < n.lastUpdate-n.AvgWindow {
		cut++
	}
	n.history = n.history[cut:]
	var sum float64
	for _, r := range n.history {
		sum += r.Watts
	}
	n.avg = sum / float64(len(n.history))
}

// PowerInstant returns the "instantaneous" field: true power as of the last
// 10 Hz refresh (driver 530+ behaviour).
func (n *NVML) PowerInstant(t time.Duration) float64 {
	n.poll(t)
	return n.instant
}

// PowerAverage returns the legacy averaged reading.
func (n *NVML) PowerAverage(t time.Duration) float64 {
	n.poll(t)
	return n.avg
}

// EnergyJoules returns the energy counter integrated at the sensor's own
// refresh rate — the source of the under/overestimates reported by Yang et
// al. for short kernels.
func (n *NVML) EnergyJoules(t time.Duration) float64 {
	n.poll(t)
	return n.energyJ
}

// AMDSMI emulates ROCm SMI / AMD SMI on the W7700: the built-in sensor
// closely matches external measurement (Fig. 7b).
type AMDSMI struct {
	gpu *gpu.GPU

	// UpdatePeriod is ~1 ms: effectively continuous at Fig. 7 time scales.
	UpdatePeriod time.Duration

	lastUpdate time.Duration
	value      float64
	energyJ    float64
	haveFirst  bool
}

// NewAMDSMI attaches an AMD SMI emulation to g.
func NewAMDSMI(g *gpu.GPU) *AMDSMI {
	return &AMDSMI{gpu: g, UpdatePeriod: time.Millisecond}
}

func (a *AMDSMI) poll(t time.Duration) {
	if !a.haveFirst {
		a.lastUpdate = t
		a.value = a.gpu.PowerAt(t)
		a.haveFirst = true
		return
	}
	for t >= a.lastUpdate+a.UpdatePeriod {
		a.lastUpdate += a.UpdatePeriod
		p := a.gpu.PowerAt(a.lastUpdate)
		a.energyJ += p * a.UpdatePeriod.Seconds()
		a.value = p
	}
}

// Power returns the current sensor value via the rocm-smi interface.
func (a *AMDSMI) Power(t time.Duration) float64 {
	a.poll(t)
	return a.value
}

// PowerViaAMDSMI returns the same value through the successor amd-smi
// interface — the paper notes both interfaces yield identical results.
func (a *AMDSMI) PowerViaAMDSMI(t time.Duration) float64 {
	return a.Power(t)
}

// EnergyJoules returns the integrated energy counter.
func (a *AMDSMI) EnergyJoules(t time.Duration) float64 {
	a.poll(t)
	return a.energyJ
}

// JetsonINA emulates the Jetson's INA3221 rail monitor: ~10 Hz and blind to
// the carrier board.
type JetsonINA struct {
	gpu *gpu.GPU

	UpdatePeriod time.Duration

	lastUpdate time.Duration
	value      float64
	energyJ    float64
	haveFirst  bool
}

// NewJetsonINA attaches the on-module sensor emulation to g.
func NewJetsonINA(g *gpu.GPU) *JetsonINA {
	return &JetsonINA{gpu: g, UpdatePeriod: 100 * time.Millisecond}
}

func (j *JetsonINA) poll(t time.Duration) {
	if !j.haveFirst {
		j.lastUpdate = t
		j.value = j.gpu.ModulePower(t)
		j.haveFirst = true
		return
	}
	for t >= j.lastUpdate+j.UpdatePeriod {
		j.lastUpdate += j.UpdatePeriod
		p := j.gpu.ModulePower(j.lastUpdate)
		j.energyJ += p * j.UpdatePeriod.Seconds()
		j.value = p
	}
}

// Power returns the module power as of the last refresh.
func (j *JetsonINA) Power(t time.Duration) float64 {
	j.poll(t)
	return j.value
}

// EnergyJoules returns the integrated module energy.
func (j *JetsonINA) EnergyJoules(t time.Duration) float64 {
	j.poll(t)
	return j.energyJ
}

// CPU is a minimal host-CPU power model for the RAPL emulation: idle power
// plus a utilisation-driven dynamic share.
type CPU struct {
	IdleW float64
	TDPW  float64
	Util  float64 // 0..1, set by the workload
	// Noise, when set, adds a ~0.5% RMS supply ripple to every Power
	// call, as gpu.GPU does to its power, so a package held at one
	// utilisation never reads bit-identical power twice. Nil gives the
	// noiseless model.
	Noise *rng.Source
}

// Power returns the package power at the current utilisation. RAPL calls
// it once per counter update.
func (c *CPU) Power() float64 {
	u := c.Util
	if u < 0 {
		u = 0
	}
	if u > 1 {
		u = 1
	}
	p := c.IdleW + u*(c.TDPW-c.IdleW)
	if c.Noise != nil {
		p += c.Noise.NormSigma(0.005 * p)
	}
	return p
}

// RAPL emulates Intel's Running Average Power Limit counters: a package
// energy counter refreshed at ~1 kHz.
type RAPL struct {
	cpu *CPU

	UpdatePeriod time.Duration

	lastUpdate time.Duration
	energyJ    float64
	haveFirst  bool
}

// NewRAPL attaches a RAPL emulation to cpu.
func NewRAPL(cpu *CPU) *RAPL {
	return &RAPL{cpu: cpu, UpdatePeriod: time.Millisecond}
}

// EnergyJoules returns the package energy counter at time t.
func (r *RAPL) EnergyJoules(t time.Duration) float64 {
	if !r.haveFirst {
		r.lastUpdate = t
		r.haveFirst = true
		return r.energyJ
	}
	for t >= r.lastUpdate+r.UpdatePeriod {
		r.lastUpdate += r.UpdatePeriod
		r.energyJ += r.cpu.Power() * r.UpdatePeriod.Seconds()
	}
	return r.energyJ
}
