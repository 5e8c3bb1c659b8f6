package pipeline

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/source"
)

// scripted is a source that hands out pre-built batches, one per
// ReadInto whatever the slice asked for.
type scripted struct {
	chans   int
	batches []source.Batch
	next    int
	now     time.Duration
}

func (s *scripted) Meta() source.Meta {
	return source.Meta{Backend: "scripted", RateHz: 20000, Channels: []string{"a", "b", "c", "d"}[:s.chans]}
}
func (s *scripted) Now() time.Duration { return s.now }
func (s *scripted) ReadInto(_ time.Duration, b *source.Batch) error {
	b.Reset(s.chans)
	if s.next < len(s.batches) {
		in := &s.batches[s.next]
		s.next++
		for i := 0; i < in.Len(); i++ {
			b.Append(in.Time[i], in.Row(i), in.Total[i])
		}
		b.Marks = append(b.Marks, in.Marks...)
		if n := b.Len(); n > 0 {
			s.now = b.Time[n-1]
		}
	}
	return nil
}
func (s *scripted) Joules() float64 { return 0 }
func (s *scripted) Resyncs() int    { return 0 }
func (s *scripted) Close()          {}

// refReadInto is the resampler's fold adding every sample into the bin's
// sums in memory, the form the register-accumulated runs replaced: the
// reference TestResampleMatchesReference holds ReadInto to.
func refReadInto(r *resampler, d time.Duration, b *source.Batch) {
	stride := len(r.meta.Channels)
	b.Reset(stride)
	r.inner.ReadInto(d, &r.in)
	in := &r.in
	n := in.Len()
	marks := in.Marks
	mk := 0
	for i := 0; i < n; i++ {
		t := in.Time[i]
		if r.binEnd != 0 && t > r.binEnd {
			r.emit(b, stride)
		}
		if r.binEnd == 0 {
			r.binEnd = (t + r.period - 1) / r.period * r.period
			if r.binEnd <= r.lastEdge {
				r.binEnd = r.lastEdge + r.period
			}
		}
		row := in.Chans[i*stride : (i+1)*stride]
		for m, w := range row {
			r.sums[m] += w
		}
		r.totSum += in.Total[i]
		r.n++
		for mk < len(marks) && marks[mk] == i {
			r.marks++
			mk++
		}
		if t == r.binEnd {
			r.emit(b, stride)
		}
	}
}

// resampleInput is a seeded stream of reads for stride channels at about
// 20 kHz: jittered timestamps, samples landing exactly on 1 kHz bin
// edges, repeated timestamps (an edge repeated after its bin emitted
// included), markers, and reads of 0, 1 or up to 300 samples.
func resampleInput(rng *rand.Rand, stride, reads int) []source.Batch {
	out := make([]source.Batch, reads)
	row := make([]float64, stride)
	t := time.Duration(0)
	for k := range out {
		b := &out[k]
		b.Reset(stride)
		size := rng.Intn(300)
		if rng.Intn(4) == 0 {
			size = rng.Intn(2)
		}
		for i := 0; i < size; i++ {
			switch rng.Intn(10) {
			case 0: // onto the next bin edge
				t = (t/time.Millisecond + 1) * time.Millisecond
			case 1: // repeat the previous timestamp
			default:
				t += 50*time.Microsecond + time.Duration(rng.Intn(20001)-10000)*time.Nanosecond
			}
			total := 0.0
			for m := range row {
				row[m] = 10*float64(m+1) + rng.NormFloat64()
				total += row[m]
			}
			b.Append(t, row, total)
			if rng.Intn(50) == 0 {
				b.Mark()
			}
		}
	}
	return out
}

// TestResampleMatchesReference holds ReadInto to the per-sample fold,
// bit for bit, on jittered streams at strides 1–4.
func TestResampleMatchesReference(t *testing.T) {
	for stride := 1; stride <= 4; stride++ {
		for seed := int64(1); seed <= 3; seed++ {
			input := resampleInput(rand.New(rand.NewSource(seed*10+int64(stride))), stride, 400)
			got := Resample(1000)(&scripted{chans: stride, batches: input}).(*resampler)
			want := Resample(1000)(&scripted{chans: stride, batches: input}).(*resampler)
			var gb, wb source.Batch
			emitted := 0
			for k := range input {
				got.ReadInto(time.Millisecond, &gb)
				refReadInto(want, time.Millisecond, &wb)
				if !slices.Equal(gb.Time, wb.Time) || !slices.Equal(gb.Marks, wb.Marks) ||
					!bitsEqual(gb.Total, wb.Total) || !bitsEqual(gb.Chans, wb.Chans) {
					t.Fatalf("stride %d seed %d read %d: got %v %v %v %v, want %v %v %v %v", stride, seed, k,
						gb.Time, gb.Total, gb.Chans, gb.Marks, wb.Time, wb.Total, wb.Chans, wb.Marks)
				}
				emitted += gb.Len()
			}
			if emitted == 0 {
				t.Fatalf("stride %d seed %d: nothing resampled", stride, seed)
			}
		}
	}
}

// bitsEqual reports whether two float64 slices hold the same bits.
func bitsEqual(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}
