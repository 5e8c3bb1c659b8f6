package fleet

// Integration of the derived-source pipeline layer with fleet ingest:
// the acceptance zero-allocation guard for stage chains, marker survival
// through Resample plus fleet downsampling (extending the PR 4
// regression), and derived-rate block sizing.

import (
	"testing"
	"time"

	"repro/internal/pipeline"
)

// TestPipelineIngestSteadyStateZeroAlloc is the acceptance contract for
// derived stations: steady-state ingest through a three-stage chain
// (Resample → Calibrate → Smooth over a 20 kHz source) allocates nothing
// once batch arrays and the ring arena are warm.
func TestPipelineIngestSteadyStateZeroAlloc(t *testing.T) {
	src := pipeline.Chain(&stubSource{},
		pipeline.Resample(1000),
		pipeline.Calibrate(0.98, 0.25),
		pipeline.Smooth(5*time.Millisecond))
	m := NewManager(Config{})
	if _, err := m.Add("dev0", "stub|chain3", src); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	m.StepAll(200 * time.Millisecond) // warm every stage and the ring
	allocs := testing.AllocsPerRun(100, func() {
		m.StepAll(5 * time.Millisecond)
	})
	if allocs != 0 {
		t.Errorf("steady-state chained ingest allocates %v per step, want 0", allocs)
	}
}

// TestPipelineDerivedBlockSizing pins the no-fleet-changes pacing
// contract: a derived station's downsample block size follows the
// stage-rewritten Meta.RateHz, so a 1 kHz view of a 20 kHz source gets
// 1-sample blocks at the default 1 ms point period and its ring fills at
// the derived rate.
func TestPipelineDerivedBlockSizing(t *testing.T) {
	src := pipeline.Chain(&stubSource{}, pipeline.Resample(1000))
	m := NewManager(Config{})
	d, err := m.Add("dev0", "stub|resample", src)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	if d.Meta().RateHz != 1000 || d.Meta().Backend != "stub+resample" {
		t.Fatalf("derived meta not adopted: %+v", d.Meta())
	}
	m.StepAll(time.Second)
	st := d.Status()
	// 1000 resampled samples over one virtual second, one per ring point.
	if st.Samples != 1000 {
		t.Errorf("samples = %d, want 1000 at the derived rate", st.Samples)
	}
	if st.RingTotal != 1000 {
		t.Errorf("ring total = %d, want 1000 (block size 1 at 1 kHz)", st.RingTotal)
	}
	// The resampled constant-60 W stream keeps the stub's power level.
	if st.Watts != 60 {
		t.Errorf("watts = %v, want 60", st.Watts)
	}
}

// TestMarkerSurvivesResampleAndDownsampling extends the PR 4 marker
// regression through the pipeline layer: one marked 20 kHz sample must
// survive Resample's 20-to-1 bin averaging AND the fleet's block
// downsampling — surfacing in the right ring point, the device trace and
// the station's marker counter.
func TestMarkerSurvivesResampleAndDownsampling(t *testing.T) {
	// Mark raw sample 27: resample bins raw 21..40 into derived sample 2
	// (t = 2 ms); block-2 downsampling folds derived samples 1..2 into
	// ring point 0.
	src := pipeline.Chain(&stubSource{markAt: 27}, pipeline.Resample(1000))
	m := NewManager(Config{Block: 40}) // 2 ms ring points
	d, err := m.Add("dev0", "stub|resample", src)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	m.StepAll(10 * time.Millisecond) // 200 raw samples, 10 derived, 5 points

	pts := d.Ring().Snapshot(0)
	if len(pts) != 5 {
		t.Fatalf("ring holds %d points, want 5", len(pts))
	}
	for i, p := range pts {
		want := 0
		if i == 0 {
			want = 1
		}
		if p.Marks != want {
			t.Errorf("ring point %d: marks = %d, want %d", i, p.Marks, want)
		}
	}
	tr := d.Trace(0)
	if len(tr.Points) != 5 || tr.Points[0].Marker != 'M' || tr.Points[1].Marker != 0 {
		t.Errorf("trace markers wrong: %+v", tr.Points)
	}
	if st := d.Status(); st.Marks != 1 {
		t.Errorf("status marks = %d, want 1", st.Marks)
	}
}

// TestOverheadPublished: a rate-limited source's sampling-overhead
// accounting reaches Status through the lock-free publication path.
func TestOverheadPublished(t *testing.T) {
	src := pipeline.Chain(&stubSource{}, pipeline.RateLimit(1000))
	m := NewManager(Config{})
	d, err := m.Add("dev0", "stub|ratelimit", src)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	m.StepAll(100 * time.Millisecond)
	if st := d.Status(); st.OverheadSeconds <= 0 {
		t.Errorf("overhead = %v, want > 0 after 100ms of rate-limited ingest", st.OverheadSeconds)
	}
	// A station without overhead accounting publishes zero.
	d2, err := m.Add("dev1", "stub", &stubSource{})
	if err != nil {
		t.Fatal(err)
	}
	m.StepAll(10 * time.Millisecond)
	if st := d2.Status(); st.OverheadSeconds != 0 {
		t.Errorf("plain source overhead = %v, want 0", st.OverheadSeconds)
	}
}

// TestGenTracksBlocksAndChurn pins Manager.Gen's invalidation contract:
// the fingerprint is stable while no station completes a block, and
// changes on new blocks, adoption and retirement.
func TestGenTracksBlocksAndChurn(t *testing.T) {
	m := NewManager(Config{})
	if _, err := m.Add("dev0", "stub", &stubSource{}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	m.StepAll(50 * time.Millisecond)

	g1 := m.Gen()
	if g2 := m.Gen(); g2 != g1 {
		t.Errorf("Gen unstable with no new blocks: %d vs %d", g1, g2)
	}
	m.StepAll(5 * time.Millisecond) // completes blocks
	g3 := m.Gen()
	if g3 == g1 {
		t.Error("Gen did not change after new blocks")
	}
	if _, err := m.Add("dev1", "stub", &stubSource{}); err != nil {
		t.Fatal(err)
	}
	g4 := m.Gen()
	if g4 == g3 {
		t.Error("Gen did not change on adoption")
	}
	if err := m.Remove("dev1"); err != nil {
		t.Fatal(err)
	}
	if g5 := m.Gen(); g5 == g4 {
		t.Error("Gen did not change on retirement")
	}
}
