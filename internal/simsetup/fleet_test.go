package simsetup

import (
	"testing"
	"time"

	"repro/internal/source"
)

func TestParseFleetDefaultSpec(t *testing.T) {
	members, err := ParseFleet(DefaultFleetSpec, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(members) != 8 {
		t.Fatalf("%d members, want 8", len(members))
	}
	want := map[string]string{
		"gpu0": "rtx4000ada", "gpu1": "w7700", "soc0": "jetson",
		"ssd0": "ssd", "gpu0sw": "nvml", "cpu0": "rapl",
		"gpu0lo":  "rtx4000ada@0|resample:1000|calib:0.98:0.25",
		"cpu0lim": "rapl@5|ratelimit:100",
	}
	wantBackend := map[string]string{
		"gpu0": "powersensor3", "gpu1": "powersensor3", "soc0": "powersensor3",
		"ssd0": "powersensor3", "gpu0sw": "nvml", "cpu0": "rapl",
		"gpu0lo": "powersensor3+resample+calib", "cpu0lim": "rapl+ratelimit",
	}
	wantRate := map[string]float64{"gpu0lo": 1000, "cpu0lim": 100}
	for _, m := range members {
		defer m.Src.Close()
		if want[m.Name] != m.Kind {
			t.Errorf("member %s has kind %s, want %s", m.Name, m.Kind, want[m.Name])
		}
		meta := m.Src.Meta()
		if meta.Backend != wantBackend[m.Name] {
			t.Errorf("member %s has backend %s, want %s", m.Name, meta.Backend, wantBackend[m.Name])
		}
		if len(meta.Channels) == 0 {
			t.Errorf("member %s has no channels", m.Name)
		}
		if meta.RateHz <= 0 {
			t.Errorf("member %s has rate %v", m.Name, meta.RateHz)
		}
		if hz, ok := wantRate[m.Name]; ok && meta.RateHz != hz {
			t.Errorf("member %s has derived rate %v, want %v", m.Name, meta.RateHz, hz)
		}
	}
}

func TestParseFleetErrors(t *testing.T) {
	for _, spec := range []string{
		"",                    // no stations
		" , ,",                // only blanks
		"gpu0",                // missing =kind
		"=ssd",                // empty name
		"a=ssd,a=ssd",         // duplicate name
		"gpu0=warp9",          // unknown kind
		"ok=ssd,bad=notakind", // one good, one bad
		"a=synth@",            // empty seed index
		"a=synth@-1",          // negative seed index
		"a=synth@x",           // non-numeric seed index
		"a=synth|warp:9",      // unknown stage
		"a=synth|resample:0",  // non-positive resample rate
		"a=synth|resample:x",  // non-numeric resample rate
		"a=synth|calib:x",     // non-numeric gain
		"a=synth|calib:1:x",   // non-numeric offset
		"a=synth|ratelimit:0", // non-positive limit
		"a=synth|smooth:0s",   // non-positive time constant
		"a=synth|smooth:5",    // not a duration
	} {
		if _, err := ParseFleet(spec, 1); err == nil {
			t.Errorf("ParseFleet(%q) succeeded, want error", spec)
		}
	}
}

// TestParseFleetNonFinite: strconv.ParseFloat accepts NaN and Inf, and
// every range check is false for NaN, so these stage arguments used to
// parse — and a rate of Inf or 1e300 then panicked the fleet's device
// construction. Every numeric argument must now be finite, and a rate
// must lie in [MinStageHz, MaxStageHz].
func TestParseFleetNonFinite(t *testing.T) {
	for _, stage := range []string{
		"resample:NaN", "resample:Inf", "resample:-Inf", "resample:1e300", "resample:1e-300",
		"ratelimit:NaN", "ratelimit:+Inf", "ratelimit:1e300", "ratelimit:1e-300",
		"skew:NaN", "spike:NaN:8", "spike:0.1:NaN", "spike:0.1:Inf",
		"calib:NaN", "calib:Inf", "calib:1:NaN", "calib:1:-Inf",
		"dropout:NaN:5ms", "stuck:NaN:5ms",
	} {
		spec := "a=synth|" + stage
		if members, err := ParseFleet(spec, 1); err == nil {
			members[0].Src.Close()
			t.Errorf("ParseFleet(%q) succeeded, want error", spec)
		}
	}
	for _, stage := range []string{"resample:1e6", "resample:1e-3", "ratelimit:1e6", "ratelimit:1e-3"} {
		members, err := ParseFleet("a=synth|"+stage, 1)
		if err != nil {
			t.Errorf("%s at the rate bound refused: %v", stage, err)
			continue
		}
		members[0].Src.Close()
	}
}

// TestStationsProducePower advances each station kind in isolation and
// checks its workload actually moves energy — GPU kernels, SoC load, SSD
// I/O and CPU duty cycles all show up on the station's source, whether it
// is a PowerSensor3 or a polled software meter.
func TestStationsProducePower(t *testing.T) {
	// Native rates: 20 kHz for PowerSensor3 rigs, the vendor refresh
	// rates for the software meters.
	wantRate := map[string]float64{
		"rtx4000ada": 20000, "w7700": 20000, "jetson": 20000, "ssd": 20000,
		"nvml": 10, "amdsmi": 1000, "jetson-ina": 10, "rapl": 1000,
		"synth": 20000,
	}
	var b source.Batch
	for _, kind := range FleetKinds() {
		src, err := NewStation(kind, 7)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if got := src.Meta().RateHz; got != wantRate[kind] {
			t.Errorf("%s: rate = %v Hz, want %v", kind, got, wantRate[kind])
		}
		before := src.Now()
		samples := 0
		for _, window := range []time.Duration{500 * time.Millisecond, 300 * time.Millisecond} {
			src.ReadInto(window, &b)
			if b.Stride() != len(src.Meta().Channels) {
				t.Errorf("%s: batch stride %d for %d channels",
					kind, b.Stride(), len(src.Meta().Channels))
			}
			samples += b.Len()
		}
		if src.Now() < before+800*time.Millisecond {
			t.Errorf("%s: Read moved clock %v -> %v", kind, before, src.Now())
		}
		if samples == 0 {
			t.Errorf("%s: no samples streamed over 800ms", kind)
		}
		if minimum := int(wantRate[kind] * 0.7); samples < minimum {
			t.Errorf("%s: %d samples over 800ms, want >= %d", kind, samples, minimum)
		}
		if src.Joules() <= 0 {
			t.Errorf("%s: no energy measured after 800ms", kind)
		}
		src.Close()
	}
}
