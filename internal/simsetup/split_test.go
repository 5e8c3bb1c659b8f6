package simsetup

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/source"
)

// stream is everything a source delivered over a run of reads: the
// concatenated columns, the marks as indices into them, and the source's
// clock and energy counter after the last read.
type stream struct {
	time   []time.Duration
	total  []float64
	chans  []float64
	marks  []int
	now    time.Duration
	joules float64
}

// readSplit reads src for total virtual time in the given slice pattern,
// cycled, with the last slice trimmed so the reads cover exactly total.
func readSplit(src source.Source, total time.Duration, pattern []time.Duration) stream {
	var s stream
	var b source.Batch
	for done, k := time.Duration(0), 0; done < total; k++ {
		d := min(pattern[k%len(pattern)], total-done)
		if err := src.ReadInto(d, &b); err != nil {
			panic(err)
		}
		base := len(s.time)
		for _, m := range b.Marks {
			s.marks = append(s.marks, base+m)
		}
		s.time = append(s.time, b.Time...)
		s.total = append(s.total, b.Total...)
		s.chans = append(s.chans, b.Chans...)
		done += d
	}
	s.now, s.joules = src.Now(), src.Joules()
	return s
}

// diffStreams names the first way a and b differ, or returns "".
// Joules may differ by summation rounding only: a source may sum its
// counter per read.
func diffStreams(a, b stream) string {
	if len(a.time) != len(b.time) {
		return fmt.Sprintf("%d vs %d samples", len(a.time), len(b.time))
	}
	for i := range a.time {
		if a.time[i] != b.time[i] || a.total[i] != b.total[i] {
			return fmt.Sprintf("sample %d: (%v, %v) vs (%v, %v)",
				i, a.time[i], a.total[i], b.time[i], b.total[i])
		}
	}
	for i := range a.chans {
		if a.chans[i] != b.chans[i] {
			return fmt.Sprintf("channel cell %d: %v vs %v", i, a.chans[i], b.chans[i])
		}
	}
	if fmt.Sprint(a.marks) != fmt.Sprint(b.marks) {
		return fmt.Sprintf("marks %v vs %v", a.marks, b.marks)
	}
	if a.now != b.now {
		return fmt.Sprintf("Now %v vs %v", a.now, b.now)
	}
	if d := math.Abs(a.joules - b.joules); d > 1e-12*math.Max(1, math.Abs(a.joules)) {
		return fmt.Sprintf("Joules %v vs %v", a.joules, b.joules)
	}
	return ""
}

// Read patterns: the fleet's 5 ms quantum, and the coarse and irregular
// spans a station reads when it skips the quanta that hold no sample for
// it.
var (
	fineReads   = []time.Duration{5 * time.Millisecond}
	coarseReads = []time.Duration{
		100 * time.Millisecond, 35 * time.Millisecond, 5 * time.Millisecond,
		250 * time.Millisecond, time.Millisecond, 61 * time.Millisecond,
		10 * time.Millisecond, 15 * time.Millisecond,
	}
)

// TestSplitReadInvariance pins the property due-time stepping rests on:
// reading a source in 5 ms slices and in coarse, irregular slices
// covering the same total gives the same samples, marks, clock and
// energy. It covers every station kind bare, and every pipeline stage on
// a slow (10 Hz nvml) and a fast (20 kHz rig) base.
func TestSplitReadInvariance(t *testing.T) {
	type tc struct {
		spec  string
		total time.Duration
	}
	var cases []tc
	for _, kind := range FleetKinds() {
		cases = append(cases, tc{kind, 2 * time.Second})
	}
	stages := []struct{ slow, fast string }{
		{"resample:5", "resample:1000"},
		{"calib:0.98:0.25", "calib:0.98:0.25"},
		{"ratelimit:5", "ratelimit:100"},
		{"smooth:300ms", "smooth:10ms"},
		{"dropout:0.3:250ms", "dropout:0.3:5ms"},
		{"stuck:0.3:250ms", "stuck:0.3:5ms"},
		{"spike:0.05:8", "spike:0.01:8"},
		{"skew:200", "skew:200"},
		{"jitter:10ms", "jitter:100us"},
	}
	for _, st := range stages {
		cases = append(cases,
			tc{"nvml|" + st.slow, 5 * time.Second},
			tc{"rtx4000ada|" + st.fast, time.Second},
		)
	}
	cases = append(cases,
		tc{"jetson|resample:1000", time.Second},
		tc{"ssd|resample:1000", time.Second},
		tc{"rapl|ratelimit:100", 2 * time.Second},
	)
	for _, c := range cases {
		t.Run(c.spec, func(t *testing.T) {
			t.Parallel()
			read := func(pattern []time.Duration) stream {
				src, err := BuildStation(c.spec, 17, 2)
				if err != nil {
					t.Fatal(err)
				}
				defer src.Close()
				return readSplit(src, c.total, pattern)
			}
			fine, coarse := read(fineReads), read(coarseReads)
			if len(fine.time) == 0 {
				t.Fatal("no samples delivered")
			}
			if d := diffStreams(fine, coarse); d != "" {
				t.Errorf("5 ms reads vs coarse reads: %s", d)
			}
			for i := 1; i < len(fine.time); i++ {
				if fine.time[i] < fine.time[i-1] {
					t.Fatalf("timestamps go backwards at sample %d", i)
				}
			}
		})
	}
}
