package main

import (
	"sort"
	"sync"
	"time"
)

// The benchmark runs on a few cores of a shared machine, and how much work
// those cores do per second drifts by tens of percent within a minute as
// the machine's other tenants come and go: on a 2-vCPU Xeon VM one run's
// ten-second phases ingested from 21.7 to 31.1 Msamples/s. A sampler
// goroutine times a fixed kernel of the benchmark's own every probeEvery
// throughout an untraced run, so the host's speed is known for each setup
// and each measured phase, and the run reports its timings as on a host
// running that kernel at probeNominal rounds per second. Per one-second
// window the kernel's speed and the ingest rate correlate at 0.75-0.9 on
// that VM. The kernel stays in the core's private caches, so the daemon's
// own memory traffic barely moves it and a change to the daemon still
// shows in full.

const (
	probeEvery   = 100 * time.Millisecond
	probeWords   = 1 << 13 // 64 KiB
	probeRounds  = 1 << 18 // one pass, ~0.75 ms
	probeNominal = 350e6   // rounds/s the reported timings are scaled to
)

// probeSink keeps the kernel's result live.
var probeSink uint64

// probeKernel does rounds dependent loads and stores at pseudo-random
// places in buf.
func probeKernel(buf []uint64, rounds int) {
	mask := uint64(len(buf) - 1)
	x := uint64(0x2545f4914f6cdd1d)
	for i := 0; i < rounds; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := (x ^ buf[x&mask]) & mask
		buf[j] += x
	}
	probeSink += x
}

// hostSampler records the kernel's speed over time.
type hostSampler struct {
	mu      sync.Mutex
	at      []time.Time
	rate    []float64 // rounds/s
	stop    chan struct{}
	stopped chan struct{}
}

// startHostSampler starts timing one kernel pass every probeEvery.
func startHostSampler() *hostSampler {
	hs := &hostSampler{stop: make(chan struct{}), stopped: make(chan struct{})}
	go func() {
		defer close(hs.stopped)
		buf := make([]uint64, probeWords)
		tick := time.NewTicker(probeEvery)
		defer tick.Stop()
		for {
			select {
			case <-hs.stop:
				return
			case <-tick.C:
			}
			began := time.Now()
			probeKernel(buf, probeRounds)
			rate := probeRounds / time.Since(began).Seconds()
			hs.mu.Lock()
			hs.at = append(hs.at, began)
			hs.rate = append(hs.rate, rate)
			hs.mu.Unlock()
		}
	}()
	return hs
}

// close stops the sampler and waits for it to end.
func (hs *hostSampler) close() {
	close(hs.stop)
	<-hs.stopped
}

// factor returns how much slower than nominal the host ran from from to
// to, by the median pass in that span: timings are divided by it, rates
// multiplied. With no pass in the span it returns 1.
func (hs *hostSampler) factor(from, to time.Time) float64 {
	hs.mu.Lock()
	var r []float64
	for i, at := range hs.at {
		if !at.Before(from) && at.Before(to) {
			r = append(r, hs.rate[i])
		}
	}
	hs.mu.Unlock()
	if len(r) == 0 {
		return 1
	}
	sort.Float64s(r)
	return probeNominal / r[len(r)/2]
}

// scaled returns a copy of ph as on a host running at nominal speed: its
// latencies, data ages and length divided by factor, its ingest rates
// multiplied. Counts and sizes stay as measured.
func (ph *phase) scaled(factor float64) *phase {
	out := *ph
	div := func(v []float64) []float64 {
		s := make([]float64, len(v))
		for i, x := range v {
			s[i] = x / factor
		}
		return s
	}
	out.stats = newLoadStats()
	for class, v := range ph.stats.lat {
		out.stats.lat[class] = div(v)
	}
	out.stats.late = ph.stats.late
	out.stats.attempted, out.stats.failed, out.stats.firstErr = ph.stats.attempted, ph.stats.failed, ph.stats.firstErr
	out.ages = div(ph.ages)
	out.rates = make([]float64, len(ph.rates))
	for i, r := range ph.rates {
		out.rates[i] = r * factor
	}
	out.elapsed = time.Duration(float64(ph.elapsed) / factor)
	return &out
}
