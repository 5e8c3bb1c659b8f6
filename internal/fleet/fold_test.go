package fleet

// Differential tests for the per-sample ingest kernels: the spike gate
// (despike) and the block fold (ingestBatch) must publish exactly what
// the two-pass form with a running block min/max publishes, bit for bit,
// on every input — noise, spikes, steps, flat runs, signed zeros, NaN and
// infinities — at every stride and however the stream is split into
// reads.

import (
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/source"
)

// refFold is the reference the kernels are held to: the spike gate with
// branching absolute values and an inline quarantine, then the fold with
// a running block min/max feeding the flatline detector, and the stride-2
// rows summed by the generic loop. It drives a device of its own through
// the shared staging, flush and publish code and keeps the block's min
// and max itself.
type refFold struct {
	d              *Device
	accMin, accMax float64
}

func (r *refFold) despike(b *source.Batch, end time.Duration) {
	d := r.d
	n := b.Len()
	if n == 0 {
		return
	}
	w := &d.wd
	totals := b.Total
	stride := d.chans
	prev, dev, seen := w.spikePrev, w.spikeDev, w.spikeN
	if seen == 0 {
		prev = totals[0]
	}
	quarantined := 0
	for i := 0; i < n; i++ {
		x := totals[i]
		diff := x - prev
		if diff < 0 {
			diff = -diff
		}
		if seen >= spikeArm {
			if thr := spikeGateK * dev; diff > thr && i+1 < n {
				next := totals[i+1]
				dNext := x - next
				if dNext < 0 {
					dNext = -dNext
				}
				dBridge := next - prev
				if dBridge < 0 {
					dBridge = -dBridge
				}
				if dNext > thr && dBridge <= thr {
					fix := (prev + next) / 2
					if x != 0 {
						scale := fix / x
						row := b.Chans[i*stride : (i+1)*stride]
						for m := range row {
							row[m] *= scale
						}
					}
					totals[i] = fix
					quarantined++
					prev = fix
					continue
				}
			}
		}
		dev += spikeAlpha * (diff - dev)
		seen++
		prev = x
	}
	w.spikePrev, w.spikeDev, w.spikeN = prev, dev, seen
	if quarantined > 0 {
		w.spikesQ += uint64(quarantined)
		w.spikeUntil = end + spikeRecover
	}
}

func (r *refFold) ingestBatch(b *source.Batch) {
	d := r.d
	n := b.Len()
	if n == 0 {
		return
	}
	d.samples += uint64(n)
	stride := d.chans
	mk := 0
	for i := 0; i < n; {
		run := min(d.block-d.accN, n-i)
		seg := b.Total[i : i+run]
		lo, hi := r.accMin, r.accMax
		if d.accN == 0 {
			lo, hi = seg[0], seg[0]
		}
		var sumA, sumB float64
		j := 0
		for ; j+1 < len(seg); j += 2 {
			a, b2 := seg[j], seg[j+1]
			sumA += a
			sumB += b2
			if a < lo {
				lo = a
			}
			if a > hi {
				hi = a
			}
			if b2 < lo {
				lo = b2
			}
			if b2 > hi {
				hi = b2
			}
		}
		if j < len(seg) {
			a := seg[j]
			sumA += a
			if a < lo {
				lo = a
			}
			if a > hi {
				hi = a
			}
		}
		d.accSum += sumA + sumB
		r.accMin, r.accMax = lo, hi
		switch stride {
		case 1:
			row := b.Chans[i : i+run]
			var s0, s1 float64
			j := 0
			for ; j+1 < len(row); j += 2 {
				s0 += row[j]
				s1 += row[j+1]
			}
			if j < len(row) {
				s0 += row[j]
			}
			d.pairSums[0] += s0 + s1
		case 3:
			row := b.Chans[i*3 : (i+run)*3]
			var s0, s1, s2, t0, t1, t2 float64
			j := 0
			for ; j+5 < len(row); j += 6 {
				s0 += row[j]
				s1 += row[j+1]
				s2 += row[j+2]
				t0 += row[j+3]
				t1 += row[j+4]
				t2 += row[j+5]
			}
			if j < len(row) {
				s0 += row[j]
				s1 += row[j+1]
				s2 += row[j+2]
			}
			d.pairSums[0] += s0 + t0
			d.pairSums[1] += s1 + t1
			d.pairSums[2] += s2 + t2
		default:
			for j := i; j < i+run; j++ {
				for m, w := range b.Chans[j*stride : j*stride+stride] {
					d.pairSums[m] += w
				}
			}
		}
		for mk < len(b.Marks) && b.Marks[mk] < i+run {
			d.accMarks++
			d.marks++
			mk++
		}
		d.accN += run
		i += run
		if d.accN == d.block {
			r.emit(b.Time[i-1])
		}
	}
}

// emit is Device.emit with the flatline detector reading the block's
// min and max.
func (r *refFold) emit(t time.Duration) {
	d := r.d
	inv := 1 / float64(d.accN)
	mean := d.accSum * inv
	w := d.pendWatts[d.pendN*d.chans : (d.pendN+1)*d.chans]
	for m := 0; m < d.chans; m++ {
		mw := d.pairSums[m] * inv
		w[m] = mw
		d.scratch[m] = mw
		d.pairSums[m] = 0
	}
	d.pendTime[d.pendN] = t
	d.pendTotal[d.pendN] = mean
	d.pendMarks[d.pendN] = d.accMarks
	d.pendN++
	wd := &d.wd
	if r.accMin == r.accMax {
		if wd.flatRun > 0 && r.accMin == wd.flatVal {
			wd.flatRun++
		} else {
			wd.flatVal = r.accMin
			wd.flatRun = 1
		}
	} else {
		wd.flatRun = 0
	}
	if wd.flatRun >= wd.flatRunFor {
		if !wd.flatOpen {
			wd.flatOpen = true
			wd.flatlines++
		}
	} else {
		wd.flatOpen = false
	}
	d.accMean = mean
	d.emitted = true
	if d.pendN == pendCap {
		d.flush()
	}
	d.accN = 0
	d.accMarks = 0
	d.accSum = 0
}

// foldTwin feeds identical batches to a device's kernels and to the
// reference's, each on a device of its own.
type foldTwin struct {
	got    *Device
	ref    refFold
	gb, rb source.Batch
}

func newFoldTwin(t testing.TB, chans int) *foldTwin {
	return &foldTwin{got: chanDevice(t, chans), ref: refFold{d: chanDevice(t, chans)}}
}

// feed folds samples [lo, hi) of stream through both sides as one read,
// then requires the gated batches, the gate and flatline state, the
// staged points, the ring's newest points and the published status to
// be bit-identical.
func (f *foldTwin) feed(t testing.TB, stream *source.Batch, lo, hi int) {
	t.Helper()
	for _, b := range []*source.Batch{&f.gb, &f.rb} {
		b.Reset(stream.Stride())
		for i := lo; i < hi; i++ {
			b.Append(stream.Time[i], stream.Row(i), stream.Total[i])
		}
		for _, m := range stream.Marks {
			if m >= lo && m < hi {
				b.Marks = append(b.Marks, m-lo)
			}
		}
	}
	end := stream.Time[hi-1]
	g, r := f.got, f.ref.d
	g.mu.Lock()
	r.mu.Lock()
	g.despike(&f.gb, end)
	g.ingestBatch(&f.gb)
	f.ref.despike(&f.rb, end)
	f.ref.ingestBatch(&f.rb)
	diffs := foldDiffs(g, r, &f.gb, &f.rb)
	g.flush()
	g.publish()
	r.flush()
	r.publish()
	g.mu.Unlock()
	r.mu.Unlock()
	if len(diffs) == 0 {
		diffs = ringDiffs(g.Ring().Snapshot(pendCap), r.Ring().Snapshot(pendCap))
	}
	if len(diffs) == 0 && !sameStatus(g.Status(), r.Status()) {
		diffs = append(diffs, "status")
	}
	if len(diffs) > 0 {
		t.Fatalf("samples [%d,%d): kernels differ from the reference in %v", lo, hi, diffs)
	}
}

// sameBits reports whether two float64 slices hold the same bits.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// foldDiffs names the ingest state in which g and r differ after a read,
// before its flush: the gated batch, the gate, the flatline detector, the
// in-flight block and the staged points. The gate's noise scale is held
// to bits except that any NaN matches any NaN: taking the absolute value
// clears the sign of a NaN difference, which feeds only comparisons.
func foldDiffs(g, r *Device, gb, rb *source.Batch) []string {
	var out []string
	add := func(ok bool, what string) {
		if !ok {
			out = append(out, what)
		}
	}
	add(sameBits(gb.Total, rb.Total), "gated totals")
	add(sameBits(gb.Chans, rb.Chans), "gated rows")
	gw, rw := &g.wd, &r.wd
	add(gw.spikesQ == rw.spikesQ && gw.spikeUntil == rw.spikeUntil, "spikesQ/spikeUntil")
	add(gw.spikeN == rw.spikeN && sameBits([]float64{gw.spikePrev}, []float64{rw.spikePrev}), "spike neighbour")
	add(sameBits([]float64{gw.spikeDev}, []float64{rw.spikeDev}) ||
		math.IsNaN(gw.spikeDev) && math.IsNaN(rw.spikeDev), "spike noise scale")
	add(gw.flatRun == rw.flatRun && gw.flatOpen == rw.flatOpen && gw.flatlines == rw.flatlines &&
		sameBits([]float64{gw.flatVal}, []float64{rw.flatVal}), "flatline run/episodes")
	add(g.samples == r.samples && g.marks == r.marks && g.accN == r.accN && g.accMarks == r.accMarks &&
		sameBits([]float64{g.accSum, g.accMean}, []float64{r.accSum, r.accMean}) &&
		sameBits(g.pairSums[:], r.pairSums[:]) && sameBits(g.scratch[:], r.scratch[:]), "in-flight block")
	n := g.pendN
	add(n == r.pendN && g.pendTime == r.pendTime && g.pendMarks == r.pendMarks &&
		sameBits(g.pendTotal[:n], r.pendTotal[:n]) &&
		sameBits(g.pendWatts[:n*g.chans], r.pendWatts[:n*r.chans]), "staged points")
	return out
}

// ringDiffs names a difference between two ring snapshots.
func ringDiffs(g, r []Point) []string {
	if len(g) != len(r) {
		return []string{"ring length"}
	}
	for i := range g {
		if g[i].Time != r[i].Time || g[i].Marks != r[i].Marks ||
			!sameBits([]float64{g[i].Total}, []float64{r[i].Total}) || !sameBits(g[i].Watts, r[i].Watts) {
			return []string{"ring points"}
		}
	}
	return nil
}

// sameStatus compares two statuses with their floats held to bits.
func sameStatus(a, b Status) bool {
	if !sameBits([]float64{a.Watts, a.Joules, a.RateHz, a.OverheadSeconds},
		[]float64{b.Watts, b.Joules, b.RateHz, b.OverheadSeconds}) || !sameBits(a.PairWatts, b.PairWatts) {
		return false
	}
	a.Watts, a.Joules, a.RateHz, a.OverheadSeconds, a.PairWatts = 0, 0, 0, 0, nil
	b.Watts, b.Joules, b.RateHz, b.OverheadSeconds, b.PairWatts = 0, 0, 0, 0, nil
	return reflect.DeepEqual(a, b)
}

// foldStream is a seeded stream of n samples of chans channels at
// 20 kHz, built from segments of noise with isolated and back-to-back
// spikes, level steps, bit-identical flat runs and zero rows whose totals
// mix +0 and -0, both long enough to open flatline episodes, and, when
// nans is set, NaN samples in noise and in flat runs. About one sample in
// 400 carries a marker.
func foldStream(rng *rand.Rand, chans, n int, nans bool) *source.Batch {
	const (
		noise = iota
		spiky
		steps
		flat
		zeros
		nanNoise
	)
	b := new(source.Batch)
	b.Reset(chans)
	row := make([]float64, chans)
	level := 10.0
	kinds := zeros + 1
	if nans {
		kinds = nanNoise + 1
	}
	for b.Len() < n {
		kind := rng.Intn(kinds)
		seg := 1 + rng.Intn(600)
		if kind == flat || kind == zeros {
			seg = 500 + rng.Intn(2500)
		}
		for k := 0; k < seg && b.Len() < n; k++ {
			scale := 1.0
			switch kind {
			case spiky:
				if rng.Intn(40) == 0 {
					scale = 2 + 4*rng.Float64()
					if rng.Intn(2) == 0 {
						scale = -scale
					}
				}
			case steps:
				if rng.Intn(100) == 0 {
					level = 1 + 40*rng.Float64()
				}
			}
			for m := range row {
				switch kind {
				case flat: // the row does not change
				case zeros:
					row[m] = 0
				default:
					row[m] = (level*float64(m+1) + rng.NormFloat64()*0.2) * scale
				}
			}
			if kind == nanNoise && rng.Intn(30) == 0 {
				row[rng.Intn(chans)] = math.NaN()
			}
			total := 0.0
			for _, w := range row {
				total += w
			}
			switch {
			case kind == zeros:
				total = math.Copysign(0, float64(rng.Intn(2)*2-1))
			case kind == flat && nans && rng.Intn(200) == 0:
				total = math.NaN()
			}
			b.Append(time.Duration(b.Len()+1)*stubPeriod, row, total)
			if rng.Intn(400) == 0 {
				b.Mark()
			}
		}
	}
	return b
}

// TestSpikeGateMatchesReference holds the branch-free spike gate and
// block fold to the two-pass reference on seeded streams at strides 1–4,
// split into reads at random points, single-sample reads included. It
// requires the streams to have quarantined spikes and opened flatline
// episodes, so the rare paths are compared, not skipped.
func TestSpikeGateMatchesReference(t *testing.T) {
	var spikes, flatlines uint64
	for chans := 1; chans <= 4; chans++ {
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed*10 + int64(chans)))
			stream := foldStream(rng, chans, 30000, seed%2 == 0)
			f := newFoldTwin(t, chans)
			for lo := 0; lo < stream.Len(); {
				size := 1
				if rng.Intn(5) != 0 {
					size = 1 + rng.Intn(400)
				}
				hi := min(lo+size, stream.Len())
				f.feed(t, stream, lo, hi)
				lo = hi
			}
			if d := ringDiffs(f.got.Ring().Snapshot(0), f.ref.d.Ring().Snapshot(0)); d != nil {
				t.Fatalf("chans %d seed %d: whole ring differs: %v", chans, seed, d)
			}
			st := f.got.Status()
			spikes += st.SpikesQuarantined
			flatlines += st.Flatlines
		}
	}
	if spikes == 0 || flatlines == 0 {
		t.Fatalf("streams quarantined %d spikes and opened %d flatline episodes; want both > 0", spikes, flatlines)
	}
}

// FuzzFoldMatchesReference feeds arbitrary float64 totals and rows over a
// noisy or flat background, split at arbitrary points, through the
// kernels and the reference. stride picks 1–4 channels; each record of
// data is a two-byte sample position followed by the sample's row and
// total as little-endian float64 bits, so NaN, ±Inf, ±0 and subnormals
// all reach the gate and the fold; each byte of splits is one read's
// length.
func FuzzFoldMatchesReference(f *testing.F) {
	word := func(v float64) []byte { return binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)) }
	rec := func(pos uint16, vals ...float64) []byte {
		out := binary.LittleEndian.AppendUint16(nil, pos)
		for _, v := range vals {
			out = append(out, word(v)...)
		}
		return out
	}
	f.Add(uint8(0), false, []byte{1, 7, 200, 3}, rec(400, 90, 90))
	f.Add(uint8(2), true, []byte{255, 1, 1, 64}, append(rec(300, 0, 0, 0, math.Copysign(0, -1)), rec(301, 1, 2, 3, 6)...))
	f.Add(uint8(1), false, []byte{50}, append(rec(500, math.NaN(), 1, math.NaN()), rec(900, math.Inf(1), 0, math.Inf(-1))...))
	f.Add(uint8(3), true, []byte{9, 0, 17}, rec(1200, 5e-324, -5e-324, math.SmallestNonzeroFloat64, 0, 0))
	f.Fuzz(func(t *testing.T, stride uint8, flat bool, splits []byte, data []byte) {
		chans := int(stride%4) + 1
		const n = 1500
		stream := new(source.Batch)
		stream.Reset(chans)
		rng := rand.New(rand.NewSource(int64(stride)))
		row := make([]float64, chans)
		for i := 0; i < n; i++ {
			total := 0.0
			for m := range row {
				row[m] = 10 * float64(m+1)
				if !flat {
					row[m] += rng.NormFloat64() * 0.2
				}
				total += row[m]
			}
			stream.Append(time.Duration(i+1)*stubPeriod, row, total)
		}
		size := 2 + 8*(chans+1)
		for ; len(data) >= size; data = data[size:] {
			i := int(binary.LittleEndian.Uint16(data)) % n
			for m := 0; m <= chans; m++ {
				v := math.Float64frombits(binary.LittleEndian.Uint64(data[2+8*m:]))
				if m < chans {
					stream.Chans[i*chans+m] = v
				} else {
					stream.Total[i] = v
				}
			}
		}
		tw := newFoldTwin(t, chans)
		for k, lo := 0, 0; lo < n; k++ {
			size := n
			if len(splits) > 0 {
				size = int(splits[k%len(splits)]) + 1
			}
			hi := min(lo+size, n)
			tw.feed(t, stream, lo, hi)
			lo = hi
		}
	})
}
