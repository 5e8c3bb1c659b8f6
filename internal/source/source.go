// Package source defines the streaming measurement source every fleet
// backend implements — the layer that lets one fleet manager serve
// heterogeneous meters.
//
// The paper's case studies (Section V-A1) run PowerSensor3 side by side
// with vendor counters (NVML, AMD SMI, the Jetson INA3221, RAPL) behind
// PMT's single Meter interface. This package is the streaming counterpart
// of that idea: a Source is anything that, driven forward in virtual time,
// yields timestamped power samples at its own native rate — 20 kHz for a
// PowerSensor3, ~10 Hz for NVML, ~1 kHz for RAPL.
//
// Delivery is batch-oriented and columnar: ReadInto advances the source by
// a time slice and fills a caller-owned Batch with the block of samples
// produced in it, so a 20 kHz sensor hands the fleet hundreds of samples
// per call instead of issuing one callback per 50 µs sample — and hands
// them as flat Time/Chans/Total arrays rather than an array of structs, so
// consumers fold whole columns without copying per-sample values around.
// Because the Batch is caller-owned and reused, the steady-state sample
// path allocates nothing. Consumers derive their pacing (downsample block
// sizes, ring cadence) from Meta.RateHz rather than assuming any fixed
// rate.
//
// Two adapters cover every backend in the repository:
//
//   - Sensor wraps a core.PowerSensor and the device-under-test driving it
//     (any Driver, e.g. simsetup's rig-backed stations), re-batching the
//     sample hooks.
//   - Polled wraps a software meter — a read function polled at the
//     meter's native cadence on virtual time, with an optional workload
//     tick driving the device-under-test between polls.
package source

import "time"

// MaxChannels is the most measurement channels a source can carry — equal
// to the PowerSensor3 module count, the widest backend.
const MaxChannels = 4

// Meta describes a source: what kind of meter it is and how it samples.
type Meta struct {
	// Backend names the measurement backend: "powersensor3", "nvml",
	// "amdsmi", "ina3221", "rapl", "synthetic".
	Backend string
	// RateHz is the native sample rate — the cadence ReadInto batches
	// arrive at, and the number consumers derive block sizes from.
	RateHz float64
	// Channels labels each measurement channel (e.g. "slot12",
	// "pcie8pin" for a PowerSensor3 rig; "package" for RAPL). Its length
	// is the channel count, at most MaxChannels.
	Channels []string
}

// Batch is a columnar buffer of consecutive samples: one flat array per
// column instead of an array of per-sample structs. The layout keeps the
// ingest fold tight — consumers stream down Total and Chans without
// copying 88-byte sample values — and lets a caller own (and reuse) the
// backing arrays across reads, which is what makes the steady-state
// sample path allocation-free.
//
// Sample i occupies Time[i], Total[i] and the stride-wide row
// Chans[i*stride : (i+1)*stride], where stride is the source's channel
// count. Marks holds the indices of time-synced user markers
// (PowerSensor3 only); it stays empty in steady state.
type Batch struct {
	// Time is the source-native timestamp column.
	Time []time.Duration
	// Chans is the per-channel power column block, sample-major: row i is
	// Chans[i*Stride() : (i+1)*Stride()], in watts.
	Chans []float64
	// Total is the summed-power column, in watts.
	Total []float64
	// Marks indexes the samples flagged as time-synced user markers.
	Marks []int

	stride int
}

// Reset empties the batch and sets its channel stride, keeping the backing
// arrays for reuse. Sources call it at the top of ReadInto.
func (b *Batch) Reset(stride int) {
	b.Time = b.Time[:0]
	b.Chans = b.Chans[:0]
	b.Total = b.Total[:0]
	b.Marks = b.Marks[:0]
	b.stride = stride
}

// Len returns the number of samples held.
func (b *Batch) Len() int { return len(b.Time) }

// Stride returns the channel count of each sample row.
func (b *Batch) Stride() int { return b.stride }

// Append adds one sample. chans must hold exactly Stride() per-channel
// values; it is copied into the batch's flat channel column.
func (b *Batch) Append(t time.Duration, chans []float64, total float64) {
	b.Time = append(b.Time, t)
	b.Chans = append(b.Chans, chans[:b.stride]...)
	b.Total = append(b.Total, total)
}

// Mark flags the most recently appended sample as a time-synced marker.
func (b *Batch) Mark() {
	b.Marks = append(b.Marks, len(b.Time)-1)
}

// Extend appends n uninitialised samples and returns the index of the
// first, growing every column as needed. Sources that know their sample
// count ahead of filling (a poll loop over a fixed cadence) use it to
// write Time[i], Total[i] and Row(i) with direct indexed stores instead
// of paying three append paths per sample. The appended entries hold
// stale values until the caller fills every one of them.
func (b *Batch) Extend(n int) int {
	base := len(b.Time)
	b.Time = extend(b.Time, n)
	b.Chans = extend(b.Chans, n*b.stride)
	b.Total = extend(b.Total, n)
	return base
}

// extend grows s by n entries, reusing capacity when available.
func extend[T any](s []T, n int) []T {
	if len(s)+n <= cap(s) {
		return s[: len(s)+n : cap(s)]
	}
	return append(s, make([]T, n)...)
}

// Row returns sample i's per-channel power values, a view into the flat
// channel column.
func (b *Batch) Row(i int) []float64 {
	return b.Chans[i*b.stride : (i+1)*b.stride]
}

// Overheader is implemented by sources that account their own sampling
// overhead: the cumulative wall-clock time spent inside ReadInto —
// driving the device under test and polling the backend — which is the
// measurement's footprint on the measured system. The fleet publishes it
// per station (Status.OverheadSeconds, powersensor_source_overhead_seconds)
// so operators can see when monitoring itself starts to distort the
// measurement, the overhead concern RAPL-based tools quantify.
// Overhead is read under the same single-goroutine confinement as
// ReadInto; implementations need no internal synchronisation.
type Overheader interface {
	Overhead() time.Duration
}

// Restarter is implemented by sources that can attempt recovery after a
// fault: re-open a wedged backend, resync a corrupted link, reset an
// erroring meter. The fleet's health watchdog calls Restart on a bounded
// backoff schedule when a source's ReadInto errors or goes silent; a
// source without it is simply parked once its restart budget runs out.
// Restart is called under the same single-goroutine confinement as
// ReadInto. It returns an error when the recovery attempt itself failed;
// a nil return means "try reading again", not a guarantee of health.
type Restarter interface {
	Restart() error
}

// Source is a streaming measurement source on virtual time. Sources are
// not safe for concurrent use; the fleet manager makes one call at a time
// on each, under its station's lock.
type Source interface {
	// Meta describes the backend. It is constant over the source's life.
	Meta() Meta
	// Now returns the source's virtual time.
	Now() time.Duration
	// ReadInto advances the source by (at least) d of virtual time and
	// fills b — caller-owned, reset to the source's channel stride — with
	// the samples produced, oldest first. The batch's contents are valid
	// until the next ReadInto on the same batch; reusing one batch across
	// calls keeps the sample path allocation-free once its arrays reach
	// steady-state capacity.
	//
	// A non-nil error means the backend failed mid-read — a wedged
	// device, a poll returning garbage, a broken link. Samples already in
	// b are valid (the read failed after them); the caller decides
	// whether to retry, restart (see Restarter) or park the source.
	// Delivering no samples is not an error: a slice shorter than the
	// sample period legitimately yields an empty batch, and silence is
	// the consumer's gap detection's job, not the source's.
	//
	// ReadInto must not block on wall time. The fleet steps a shard's
	// stations one after another on one goroutine, so a blocking read
	// stalls every station in its shard and delays the whole fleet's
	// quantum, not only its own station. Every bundled source computes
	// its batch on virtual time and returns at once.
	//
	// Splitting a read changes nothing: ReadInto(a) then ReadInto(b)
	// delivers the same samples — timestamps, channel rows, totals and
	// marks — as one ReadInto(a+b), and leaves the same Now and, up to
	// summation rounding, the same Joules. What a source delivers may
	// depend on its virtual time and on the samples it has produced, never
	// on how callers slice that time. The fleet relies on it: a station
	// with no sample due skips quanta and reads the time they held in one
	// call when its next sample is due. Every bundled source and pipeline
	// stage keeps it (simsetup's TestSplitReadInvariance).
	ReadInto(d time.Duration, b *Batch) error
	// Joules returns the backend's cumulative energy counter, summed
	// over channels — the PowerSensor3 host-library accumulator, or the
	// vendor API's own energy counter integrated at its native rate.
	Joules() float64
	// Resyncs reports stream bytes skipped to regain protocol alignment;
	// zero for software meters, which have no wire protocol.
	Resyncs() int
	// Close releases the backend.
	Close()
}
