// Fuzz target for the kindspec grammar, a trust boundary: cmd/psd parses
// it from the -fleet flag and from POST /api/fleet/add. Any spec the
// parser accepts must build a fleet that steps without panicking.

package simsetup_test

import (
	"strings"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/simsetup"
)

func FuzzParseFleet(f *testing.F) {
	// Seeds: the default fleet, the kindspecs the package's tests use,
	// the rate bounds, and specs the parser must refuse.
	for _, spec := range []string{
		simsetup.DefaultFleetSpec,
		"a=synth|resample:1000|calib:0.98:0.25",
		"a=rapl@5|ratelimit:100|smooth:50ms",
		"a=rtx4000ada|dropout:0.05:5ms|spike:0.001:8",
		"a=nvml|stuck:0.5:20ms|skew:-250|jitter:50us",
		"a=synth|resample:1e6,b=synth|ratelimit:1e-3",
		"a=synth|resample:NaN",
		"a=synth|resample:Inf",
		"a=synth|ratelimit:1e300",
		"a=synth|calib:1e308:1e308",
		"a=synth@-1,a=synth",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		if strings.Count(spec, ",") > 3 {
			return // a few stations exercise the grammar; more only cost memory
		}
		mgr, err := fleet.FromSpec(spec, 1, fleet.Config{RingCap: 64})
		if err != nil {
			return
		}
		defer mgr.Close()
		mgr.StepAll(5 * time.Millisecond)
	})
}
