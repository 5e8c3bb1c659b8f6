// The bit-level codec of the long-horizon history tier: MSB-first bit
// strings, delta-of-delta timestamp encoding and XOR float encoding in
// the style of Facebook's Gorilla TSDB. See history.go for the tier
// overview and the on-disk-free block layout.

package history

import (
	"encoding/binary"
	"math"
	"math/bits"
	"time"
)

// bitWriter appends MSB-first bit strings: whole 64-bit words go to a
// growable byte buffer, big-endian, and the partial word waits in acc.
// The buffer is reused across blocks (reset keeps capacity), so
// steady-state appends write into already-grown storage and allocate
// nothing.
type bitWriter struct {
	buf  []byte
	acc  uint64 // pending bits, left-aligned
	nacc uint   // pending bit count, always < 64
}

func (w *bitWriter) reset() {
	w.buf, w.acc, w.nacc = w.buf[:0], 0, 0
}

// len returns the encoded length in bytes, a partial last byte included.
func (w *bitWriter) len() int { return len(w.buf) + int(w.nacc+7)/8 }

// appendTo appends the encoded bytes to dst, the last one zero-padded.
func (w *bitWriter) appendTo(dst []byte) []byte {
	dst = append(dst, w.buf...)
	for k := uint(0); k < w.nacc; k += 8 {
		dst = append(dst, byte(w.acc>>(56-k)))
	}
	return dst
}

// writeBits appends the low n bits of v, most significant first; n is
// 1..64 and v carries no bits above them.
func (w *bitWriter) writeBits(v uint64, n uint) {
	free := 64 - w.nacc
	if n < free {
		w.acc |= v << (free - n)
		w.nacc += n
		return
	}
	// Fill the word, flush it, and carry the rest (a shift by 64 is 0).
	rest := n - free
	w.buf = binary.BigEndian.AppendUint64(w.buf, w.acc|v>>rest)
	w.acc, w.nacc = v<<(64-rest), rest
}

func (w *bitWriter) writeBit(b uint64) { w.writeBits(b, 1) }

// bitReader consumes MSB-first bit strings from a byte buffer. Callers
// bound reads by the encoded point count, never by buffer exhaustion, so
// trailing pad bits in the final byte are never misread as data. A read
// past the end of buf, which only a truncated or corrupt block asks
// for, returns 0 and sets short instead of indexing out of range.
type bitReader struct {
	buf   []byte
	pos   uint // absolute bit cursor
	short bool // a read ran past the end of buf
}

func (r *bitReader) readBits(n uint) uint64 {
	if r.pos+n > uint(len(r.buf))*8 {
		r.short = true
		return 0
	}
	var v uint64
	for n > 0 {
		b := r.buf[r.pos>>3]
		avail := 8 - (r.pos & 7)
		take := avail
		if take > n {
			take = n
		}
		chunk := uint64(b>>(avail-take)) & (1<<take - 1)
		v = v<<take | chunk
		r.pos += take
		n -= take
	}
	return v
}

func (r *bitReader) readBit() uint64 { return r.readBits(1) }

// writeDoD encodes one delta-of-delta of nanosecond timestamps with
// variable-width buckets. A fixed-cadence stream (the downsample ring's
// steady state) emits dod == 0, one bit per point; clock jitter and
// resyncs pay wider buckets, up to a raw 64-bit escape for arbitrary
// gaps (a station parked for hours, a source that restarts).
func (w *bitWriter) writeDoD(dod int64) {
	switch {
	case dod == 0:
		w.writeBit(0)
	case -64 <= dod && dod < 64:
		w.writeBits(0b10, 2)
		w.writeBits(uint64(dod+64), 7)
	case -2048 <= dod && dod < 2048:
		w.writeBits(0b110, 3)
		w.writeBits(uint64(dod+2048), 12)
	case -(1<<31) <= dod && dod < 1<<31:
		w.writeBits(0b1110, 4)
		w.writeBits(uint64(dod+1<<31), 32)
	default:
		w.writeBits(0b1111, 4)
		w.writeBits(uint64(dod), 64)
	}
}

func (r *bitReader) readDoD() int64 {
	if r.readBit() == 0 {
		return 0
	}
	if r.readBit() == 0 {
		return int64(r.readBits(7)) - 64
	}
	if r.readBit() == 0 {
		return int64(r.readBits(12)) - 2048
	}
	if r.readBit() == 0 {
		return int64(r.readBits(32)) - 1<<31
	}
	return int64(r.readBits(64))
}

// writeValue XOR-encodes one float64 against the previous value. An
// unchanged value costs one bit; otherwise the changed mantissa window
// is written, reusing the previous leading/trailing-zero window when it
// still covers the XOR (control '10') and re-declaring it otherwise
// ('11' + 5-bit leading count + 6-bit length). Quantisation upstream
// (Series.Append) zeroes low mantissa bits so the window stays narrow.
func (h *headState) writeValue(vb uint64) {
	xor := vb ^ h.prevVBits
	h.prevVBits = vb
	if xor == 0 {
		h.w.writeBit(0)
		return
	}
	h.w.writeBit(1)
	lead := uint(bits.LeadingZeros64(xor))
	if lead > 31 { // 5-bit field; deeper leads just widen the window
		lead = 31
	}
	trail := uint(bits.TrailingZeros64(xor))
	if h.haveWin && lead >= h.lead && trail >= h.trail {
		h.w.writeBit(0)
		h.w.writeBits(xor>>h.trail, 64-h.lead-h.trail)
		return
	}
	h.haveWin, h.lead, h.trail = true, lead, trail
	sig := 64 - lead - trail
	h.w.writeBit(1)
	h.w.writeBits(uint64(lead), 5)
	h.w.writeBits(uint64(sig-1), 6) // sig is 1..64, stored as 0..63
	h.w.writeBits(xor>>trail, sig)
}

// blockIter decodes one block's points in order, the active head block
// included (its bit buffer reads the same way; the point count bounds
// the iteration). The bits must not change while it runs: a sealed
// block's never do, and queries iterate the head over a copy. A block
// whose bits run out before its count, or that declares a value window
// wider than 64 bits, ends the iteration at the first bad point.
type blockIter struct {
	r           bitReader
	count       int
	i           int
	t           time.Duration
	prevDelta   int64
	vBits       uint64
	lead, trail uint
}

func (b *block) iter() blockIter {
	return blockIter{
		r:     bitReader{buf: b.bits},
		count: b.count,
		t:     b.t0,
		vBits: b.v0Bits,
	}
}

func (it *blockIter) next() (time.Duration, float64, bool) {
	if it.i >= it.count {
		return 0, 0, false
	}
	if it.i == 0 {
		it.i++
		return it.t, math.Float64frombits(it.vBits), true
	}
	it.prevDelta += it.r.readDoD()
	it.t += time.Duration(it.prevDelta)
	if it.r.readBit() == 1 {
		if it.r.readBit() == 1 {
			lead := uint(it.r.readBits(5))
			sig := uint(it.r.readBits(6)) + 1
			if lead+sig > 64 {
				it.i = it.count
				return 0, 0, false
			}
			it.lead, it.trail = lead, 64-lead-sig
		}
		it.vBits ^= it.r.readBits(64-it.lead-it.trail) << it.trail
	}
	if it.r.short {
		it.i = it.count
		return 0, 0, false
	}
	it.i++
	return it.t, math.Float64frombits(it.vBits), true
}
