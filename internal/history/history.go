// Package history is the long-horizon storage tier behind the fleet's
// downsample rings. Rings hold seconds of block-averaged points at full
// fidelity; the questions production fleets ask span hours ("how many
// joules did gpu0 burn between t1 and t2?" — the interval-read model of
// PMT). This package keeps hours of a station's summed-power series in
// a compressed per-station Series and answers windowed energy queries
// over it.
//
// Storage is Gorilla-style: points are (timestamp, watts) pairs encoded
// as delta-of-delta timestamps plus XOR-compressed float values, sealed
// into fixed-point-count blocks. The downsample ring pushes points at a
// fixed cadence, so the steady-state timestamp costs one bit; values are
// quantised to a configurable dyadic quantum (default ~1 mW) before
// encoding so block-average noise does not defeat the XOR window — the
// quantisation error is orders of magnitude below the trapezoid model
// error of the downsampling itself. Sealed blocks additionally carry
// their endpoints and their own trapezoidal energy sum, so a window
// query decodes only the two blocks its edges cut; fully covered blocks
// contribute a precomputed sum without touching their bits.
//
// The fleet writes history at the ingest step: each step's finished
// ring points arrive in one AppendN call, which takes the series lock
// once and publishes the accounting counters once per batch. Appends
// allocate only when a block seals — steady-state appends write bits
// into a recycled buffer. Queries hold the lock only to copy what they
// read (sealed blocks are immutable; the head block's bits are copied
// into scratch) and decode after releasing it, so a long export never
// stalls the station's ingest step.
//
// Query semantics: EnergyWindow integrates the stored series over
// [from, to] with trapezoidal interpolation and partial-interval
// clipping at both edges — a window edge falling between two stored
// points takes the linearly interpolated slice of that interval, never
// snapping to the nearest point. An empty or inverted window is 0 J by
// contract, never NaN.
package history

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Config tunes a Series. The zero value is usable: a 1 MiB budget,
// ~1 mW value quantum, 1024-point blocks.
type Config struct {
	// MaxBytes bounds the compressed footprint of the series; once a
	// sealed block would push past it, oldest blocks are evicted. Zero
	// means DefaultMaxBytes; negative means unbounded.
	MaxBytes int
	// Quantum is the value granularity, in watts, applied before
	// encoding: values are rounded to the nearest multiple. A dyadic
	// quantum (a power of two, like the default 2^-10 W) zeroes the
	// float64 mantissa bits below it exactly, which is what lets the XOR
	// encoder store a noisy block average in a few bits. Zero means
	// DefaultQuantum; negative means lossless (no quantisation).
	Quantum float64
	// BlockPoints is the number of points per sealed block. Zero means
	// DefaultBlockPoints.
	BlockPoints int
}

const (
	// DefaultMaxBytes is the default per-series compressed budget:
	// 1 MiB holds on the order of 300k+ points — minutes of 1 ms ring
	// points, days of a 10 Hz software meter.
	DefaultMaxBytes = 1 << 20
	// DefaultQuantum is the default value quantum: 2^-10 W (~1 mW),
	// a worst-case rounding error of ~0.5 mW per point — noise floor
	// territory for the tens-of-watts rails the fleet measures.
	DefaultQuantum = 1.0 / 1024
	// DefaultBlockPoints is the default sealed-block size.
	DefaultBlockPoints = 1024

	// blockOverhead is the accounting estimate of one block's fixed
	// footprint (struct header, endpoints, slice header) charged against
	// MaxBytes on top of its encoded bits.
	blockOverhead = 64

	// rawPointBytes is the flat cost of one uncompressed point — an
	// (int64 nanoseconds, float64 watts) pair — the baseline the
	// compression ratio is measured against.
	rawPointBytes = 16
)

// Point is one decoded history sample: the block-averaged summed power
// the downsample ring produced at Time.
type Point struct {
	Time  time.Duration `json:"t"`
	Watts float64       `json:"w"`
}

// Stats is a point-in-time accounting snapshot of a Series, assembled
// from atomic counters — reading it takes no lock and cannot stall a
// concurrent append or query.
type Stats struct {
	// Points is the number of points currently held (sealed blocks plus
	// the active head block).
	Points uint64 `json:"points"`
	// Appended counts points ever accepted by Append.
	Appended uint64 `json:"appended"`
	// Dropped counts appends discarded for non-monotonic timestamps —
	// a repeated timestamp would make any rate derived from adjacent
	// points divide by zero, so the series refuses them at the door.
	Dropped uint64 `json:"dropped"`
	// EvictedPoints counts points dropped with their blocks to keep the
	// series inside its byte budget.
	EvictedPoints uint64 `json:"evicted_points"`
	// Blocks is the number of sealed blocks currently held.
	Blocks uint64 `json:"blocks"`
	// Bytes is the compressed footprint currently held, per-block
	// overhead included.
	Bytes uint64 `json:"bytes"`
}

// RawBytes is the flat float64 footprint the held points would occupy
// uncompressed.
func (st Stats) RawBytes() uint64 { return st.Points * rawPointBytes }

// Ratio is the compression ratio achieved: raw bytes over compressed
// bytes. Zero when nothing is stored.
func (st Stats) Ratio() float64 {
	if st.Bytes == 0 {
		return 0
	}
	return float64(st.RawBytes()) / float64(st.Bytes)
}

// block is one run of consecutive points: a sealed, immutable block,
// or a copy of the active head block's summary taken under the lock.
// Alongside the encoded bits it keeps its endpoints and its internal
// trapezoidal energy sum, so window queries decode a block only when a
// window edge falls inside it.
type block struct {
	count     int
	t0, tLast time.Duration
	v0Bits    uint64 // first value, float64 bits (decoder seed)
	v0, vLast float64
	sumJ      float64 // trapezoid energy across the block's own points
	bits      []byte
}

// headState is the active block being encoded: the appender's codec
// state plus the same summary fields a sealed block keeps. Its bit
// buffer is reused across seals, so steady-state appends allocate
// nothing.
type headState struct {
	count       int
	t0, tLast   time.Duration
	v0Bits      uint64
	v0, vLast   float64
	sumJ        float64
	prevDelta   int64
	prevVBits   uint64
	haveWin     bool
	lead, trail uint
	w           bitWriter
}

// view returns the head's summary without its bits: those are rewritten
// by later appends and partly held in the writer's accumulator, so
// whoever decodes them takes a copy (bitWriter.appendTo).
func (h *headState) view() block {
	return block{count: h.count, t0: h.t0, tLast: h.tLast,
		v0Bits: h.v0Bits, v0: h.v0, vLast: h.vLast, sumJ: h.sumJ}
}

// Series is one station's compressed long-horizon history: sealed
// blocks oldest-first plus the active head block. One appender and any
// number of queriers may use it concurrently. Appends serialise on an
// internal mutex; queries hold it only to copy block summaries and the
// head's bits, and decode outside it. Stats reads atomic counters
// lock-free.
type Series struct {
	mu       sync.Mutex
	maxBytes int     // 0 = unbounded
	quantum  float64 // 0 = lossless
	blockPts int

	blocks      []block // sealed, oldest first; their bits are never written
	head        headState
	sealedBytes int // bits + overhead of the sealed blocks

	appended atomic.Uint64
	dropped  atomic.Uint64
	evicted  atomic.Uint64
	blocksN  atomic.Uint64
	bytes    atomic.Uint64
}

// New returns an empty series tuned by cfg (zero value: defaults).
func New(cfg Config) *Series {
	s := &Series{maxBytes: cfg.MaxBytes, quantum: cfg.Quantum, blockPts: cfg.BlockPoints}
	switch {
	case s.maxBytes == 0:
		s.maxBytes = DefaultMaxBytes
	case s.maxBytes < 0:
		s.maxBytes = 0
	}
	switch {
	case s.quantum == 0:
		s.quantum = DefaultQuantum
	case s.quantum < 0:
		s.quantum = 0
	}
	if s.blockPts <= 0 {
		s.blockPts = DefaultBlockPoints
	}
	// Every point after a block's first costs at least two bits (a zero
	// delta-of-delta and an unchanged value), so no block encodes in
	// fewer than blockPts/4 bytes. Reserving that floor up front keeps
	// the first block's appends — which run inside the fleet's ingest
	// step — from growing the buffer on the most compressible signals.
	s.head.w.buf = make([]byte, 0, s.blockPts/4)
	return s
}

// Append records one point: AppendN with a batch of one.
func (s *Series) Append(t time.Duration, w float64) {
	s.AppendN([]time.Duration{t}, []float64{w})
}

// AppendN records a batch of points, oldest first; len(ws) must equal
// len(ts). Timestamps must be strictly increasing: a repeated or
// rewound timestamp is counted in Stats.Dropped and discarded, never
// stored — the zero-interval guard at the storage layer, so no rate or
// trapezoid derived from two adjacent history points can ever divide
// by zero. The batch takes the lock once and publishes the accounting
// counters once. Steady-state appends allocate nothing; a block seal
// (every BlockPoints stored points) allocates the sealed copy.
func (s *Series) AppendN(ts []time.Duration, ws []float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var kept, evicted uint64
	sealed := false
	h := &s.head
	for i, t := range ts {
		w := ws[i]
		if s.quantum > 0 {
			w = math.Round(w/s.quantum) * s.quantum
		}
		if h.count == 0 {
			if n := len(s.blocks); n > 0 && t <= s.blocks[n-1].tLast {
				continue
			}
			vb := math.Float64bits(w)
			h.t0, h.tLast, h.v0, h.vLast = t, t, w, w
			h.v0Bits, h.prevVBits = vb, vb
			h.count, h.prevDelta, h.sumJ, h.haveWin = 1, 0, 0, false
		} else {
			if t <= h.tLast {
				continue
			}
			delta := int64(t - h.tLast)
			h.w.writeDoD(delta - h.prevDelta)
			h.prevDelta = delta
			h.writeValue(math.Float64bits(w))
			h.sumJ += (w + h.vLast) / 2 * time.Duration(delta).Seconds()
			h.tLast, h.vLast = t, w
			h.count++
		}
		kept++
		if h.count == s.blockPts {
			evicted += s.sealLocked()
			sealed = true
		}
	}
	if dropped := uint64(len(ts)) - kept; dropped > 0 {
		s.dropped.Add(dropped)
	}
	if kept == 0 {
		return
	}
	// Appends publish before evictions, so Stats, loading them in the
	// opposite order, never sees more evicted than appended points.
	s.appended.Add(kept)
	if sealed {
		s.evicted.Add(evicted)
		s.blocksN.Store(uint64(len(s.blocks)))
	}
	s.bytes.Store(uint64(s.sealedBytes + h.w.len() + blockOverhead))
}

// sealLocked closes the head block into an immutable sealed block and
// evicts oldest blocks while the series exceeds its byte budget,
// returning the number of points evicted. Called with s.mu held.
func (s *Series) sealLocked() (evicted uint64) {
	h := &s.head
	blk := h.view()
	blk.bits = h.w.appendTo(make([]byte, 0, h.w.len()))
	s.blocks = append(s.blocks, blk)
	s.sealedBytes += len(blk.bits) + blockOverhead
	h.count = 0
	h.w.reset()
	if s.maxBytes > 0 {
		for len(s.blocks) > 1 && s.sealedBytes+blockOverhead > s.maxBytes {
			old := &s.blocks[0]
			s.sealedBytes -= len(old.bits) + blockOverhead
			evicted += uint64(old.count)
			copy(s.blocks, s.blocks[1:])
			s.blocks[len(s.blocks)-1] = block{}
			s.blocks = s.blocks[:len(s.blocks)-1]
		}
	}
	return evicted
}

// Stats returns the series' accounting snapshot from atomic counters —
// no lock, so scrape paths may call it per station per scrape.
func (s *Series) Stats() Stats {
	evicted := s.evicted.Load()
	appended := s.appended.Load()
	return Stats{
		Points:        appended - evicted,
		Appended:      appended,
		Dropped:       s.dropped.Load(),
		EvictedPoints: evicted,
		Blocks:        s.blocksN.Load(),
		Bytes:         s.bytes.Load(),
	}
}
