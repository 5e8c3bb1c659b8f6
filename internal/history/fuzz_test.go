package history

import (
	"math"
	"testing"
	"time"
)

// fuzzPoint is one decoded fuzz record: a timestamp, a value, and
// whether the AppendN batch it belongs to ends after it.
type fuzzPoint struct {
	t        time.Duration
	w        float64
	endBatch bool
}

// fuzzSeries turns fuzz bytes into a series configuration and a run of
// points. Each 4-byte record advances time by a step whose magnitude
// spans every delta-of-delta bucket (up to hours-long gaps), or repeats
// or rewinds the timestamp, and carries a value that is finite and
// bounded or one of NaN, ±Inf and 1e300. bounded reports whether every
// value is finite and bounded — the input on which energy is checked.
func fuzzSeries(data []byte) (cfg Config, pts []fuzzPoint, bounded bool) {
	if len(data) == 0 {
		return Config{}, nil, true
	}
	c := data[0]
	cfg.BlockPoints = 2 + int(c&0x0f)
	if c&0x10 != 0 {
		cfg.MaxBytes = 256 // small enough to evict
	}
	if c&0x20 != 0 {
		cfg.Quantum = -1 // lossless
	}
	bounded = true
	var t time.Duration
	const maxPoints = 4096 // keeps accumulated gaps far from overflow
	for rec := data[1:]; len(rec) >= 4 && len(pts) < maxPoints; rec = rec[4:] {
		op, v := rec[0], time.Duration(rec[1])<<8|time.Duration(rec[2])
		switch op & 0x0f {
		case 0: // repeated timestamp
		case 1: // rewind
			t -= (v + 1) * time.Microsecond
		default:
			t += (v + 1) << (4 * ((op >> 4) & 0x7))
		}
		var w float64
		switch rec[3] {
		case 255:
			w = math.NaN()
		case 254:
			w = math.Inf(1)
		case 253:
			w = math.Inf(-1)
		case 252:
			w = 1e300
		default:
			w = (float64(rec[3]) - 100) * 1.37
		}
		if rec[3] >= 252 {
			bounded = false
		}
		pts = append(pts, fuzzPoint{t: t, w: w, endBatch: op&0x80 != 0})
	}
	return cfg, pts, bounded
}

// FuzzHistoryAppend checks that batching is invisible: a run of points
// appended in fuzz-chosen AppendN batches and the same run appended
// point by point give equal Stats and bit-identical decoded points. On
// bounded input it also checks EnergyWindow against Integrate over the
// decoded points, for windows cutting blocks at either edge or both,
// covering everything, and lying outside the span.
func FuzzHistoryAppend(f *testing.F) {
	f.Add([]byte{0x05, 0x12, 0x00, 0x09, 0x80, 0x02, 0x00, 0x09, 0x81, 0x82, 0x01, 0x00, 0x7f})
	f.Add([]byte{0x33, 0x02, 0x03, 0xe8, 0x64, 0x00, 0x00, 0x00, 0x65, 0x01, 0x00, 0x10, 0x66,
		0xf2, 0xff, 0xff, 0xff, 0x72, 0x00, 0x01, 0xfe, 0x82, 0x00, 0x01, 0x10})
	f.Add([]byte{0x02, 0x22, 0x00, 0x01, 0x50, 0x22, 0x00, 0x01, 0x51, 0xa2, 0x00, 0x01, 0x52,
		0x22, 0x00, 0x02, 0x50, 0x22, 0x00, 0x01, 0x90, 0x22, 0x00, 0x01, 0x10, 0x22, 0x00, 0x01, 0x50})
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, pts, bounded := fuzzSeries(data)
		one, batched := New(cfg), New(cfg)
		var ts []time.Duration
		var ws []float64
		for i, p := range pts {
			one.Append(p.t, p.w)
			ts, ws = append(ts, p.t), append(ws, p.w)
			if p.endBatch || i == len(pts)-1 {
				batched.AppendN(ts, ws)
				ts, ws = ts[:0], ws[:0]
			}
		}
		if a, b := one.Stats(), batched.Stats(); a != b {
			t.Fatalf("per-point stats %+v, batched %+v", a, b)
		}
		all := one.PointsInto(nil, math.MinInt64, math.MaxInt64)
		got := batched.PointsInto(nil, math.MinInt64, math.MaxInt64)
		if len(all) != len(got) {
			t.Fatalf("per-point decode has %d points, batched %d", len(all), len(got))
		}
		for i := range all {
			if all[i].Time != got[i].Time || math.Float64bits(all[i].Watts) != math.Float64bits(got[i].Watts) {
				t.Fatalf("point %d: per-point %+v, batched %+v", i, all[i], got[i])
			}
		}
		if st := one.Stats(); st.Points != uint64(len(all)) {
			t.Fatalf("stats hold %d points, decode returned %d", st.Points, len(all))
		}
		if !bounded || len(all) == 0 {
			return
		}
		times := make([]time.Duration, len(all))
		watts := make([]float64, len(all))
		abs := make([]float64, len(all))
		for i, p := range all {
			times[i], watts[i], abs[i] = p.Time, p.Watts, math.Abs(p.Watts)
		}
		first, last := times[0], times[len(times)-1]
		span := last - first
		// Summation order differs between the block sums and a straight
		// pass, so agreement is relative to the window's absolute energy
		// scale: the whole span's, since a cut block's sum minus its
		// prefix rounds at the block's scale.
		scale := Integrate(times, abs, first, last)
		for _, w := range [][2]time.Duration{
			{first, last},
			{first - time.Second, last + time.Second},
			{first + span/3, last - span/4},
			{first + span/3, last + time.Second},
			{first - time.Second, first + span/5},
			{first + span/2, first + span/2 + 1},
			{last + 1, last + time.Second},
			{first + span/2, first + span/2},
		} {
			got, want := batched.EnergyWindow(w[0], w[1]), Integrate(times, watts, w[0], w[1])
			if math.IsNaN(got) || math.Abs(got-want) > 1e-9*scale {
				t.Fatalf("EnergyWindow(%v, %v) = %v J, Integrate over the decoded points %v J (scale %v J)",
					w[0], w[1], got, want, scale)
			}
		}
	})
}

// decodeBlock returns every point iterating b yields, and fails the test
// if the iteration yields more points than b declares.
func decodeBlock(t *testing.T, b *block) []Point {
	var out []Point
	it := b.iter()
	for {
		tm, w, ok := it.next()
		if !ok {
			break
		}
		out = append(out, Point{Time: tm, Watts: w})
		if len(out) > b.count {
			t.Fatalf("block of %d points decoded more", b.count)
		}
	}
	return out
}

// FuzzHistoryDecode feeds raw block bytes and point counts to the
// decoder: a truncated or corrupt block must end iteration, never panic
// or read past its bytes. Decoding a truncated copy yields a prefix of
// the full decode, and the window queries over the corrupt block
// terminate.
func FuzzHistoryDecode(f *testing.F) {
	s := New(Config{BlockPoints: 16, Quantum: -1})
	for i := 0; i < 16; i++ {
		s.Append(time.Duration(i)*time.Millisecond+time.Duration(i*i)*time.Microsecond, 40+float64(i%5)*1.37)
	}
	valid := s.blocks[0]
	f.Add(valid.bits, uint16(valid.count), uint16(len(valid.bits)/2))
	f.Add(valid.bits[:3], uint16(valid.count), uint16(1))
	// Second point declares a 31-bit lead and a 64-bit window.
	f.Add([]byte{0x7f, 0xf8, 0, 0, 0, 0, 0, 0, 0, 0, 0}, uint16(2), uint16(0))
	f.Add([]byte{}, uint16(5), uint16(0))
	f.Fuzz(func(t *testing.T, bits []byte, count, cut uint16) {
		b := block{count: int(count), t0: time.Second, v0Bits: math.Float64bits(40), bits: bits}
		full := decodeBlock(t, &b)
		if count > 0 && len(full) == 0 {
			t.Fatal("first point, which needs no bits, was not decoded")
		}
		if len(bits) > 0 {
			tb := b
			tb.bits = bits[:int(cut)%len(bits)]
			part := decodeBlock(t, &tb)
			if len(part) > len(full) {
				t.Fatalf("truncated block decoded %d points, whole block %d", len(part), len(full))
			}
			for i := range part {
				if part[i].Time != full[i].Time || math.Float64bits(part[i].Watts) != math.Float64bits(full[i].Watts) {
					t.Fatalf("point %d: truncated %+v, whole %+v", i, part[i], full[i])
				}
			}
		}
		b.tLast = 2 * time.Second
		for _, w := range [][2]time.Duration{
			{time.Second + time.Millisecond, 3 * time.Second},
			{0, time.Second + time.Millisecond},
		} {
			q := windowQuery{from: w[0], to: w[1]}
			_ = q.cutEnergy(&b)
			_ = appendWindow(nil, &b, w[0], w[1])
		}
	})
}
