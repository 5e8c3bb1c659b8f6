// Tests pinning the federation wire format — the versioned /api/fleet
// JSON body and its ETag discipline — and the segment renderer under a
// leaf label, as a head merges leaf fleets with it.

package export

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"repro/internal/fleet"
)

func wireLeaf(t testing.TB, spec string) (*fleet.Manager, *httptest.Server) {
	t.Helper()
	mgr, err := fleet.FromSpec(spec, 1, fleet.Config{RingCap: 128})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mgr.Close)
	mgr.StepAll(20 * time.Millisecond)
	srv := httptest.NewServer(New(mgr).Handler())
	t.Cleanup(srv.Close)
	return mgr, srv
}

// TestFleetJSONWireFormat pins the v1 /api/fleet wire format a
// federation head consumes. It decodes into a locally-declared mirror of
// the schema rather than the shared structs, so a renamed or retyped
// field breaks this test even if both sides of the shared types move
// together.
func TestFleetJSONWireFormat(t *testing.T) {
	mgr, srv := wireLeaf(t, "w0=synth,w1=synth")
	resp, err := http.Get(srv.URL + "/api/fleet")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}

	// The independent mirror of the wire format: every field the head
	// reads, spelled as the wire spells it.
	var wire struct {
		Schema     int    `json:"schema"`
		Generation uint64 `json:"generation"`
		Devices    []struct {
			Name     string   `json:"name"`
			Kind     string   `json:"kind"`
			Backend  string   `json:"backend"`
			Channels []string `json:"channels"`
			Pairs    int      `json:"pairs"`
			Health   string   `json:"health"`
			Watts    float64  `json:"watts"`
			Joules   float64  `json:"joules"`
			Samples  uint64   `json:"samples"`
		} `json:"devices"`
	}
	if err := json.Unmarshal(body, &wire); err != nil {
		t.Fatalf("decode /api/fleet: %v", err)
	}
	if wire.Schema != FleetSchemaVersion {
		t.Fatalf("schema = %d, want %d", wire.Schema, FleetSchemaVersion)
	}
	if wire.Generation == 0 {
		t.Error("generation = 0, want the fleet's block-boundary fingerprint")
	}
	if len(wire.Devices) != 2 {
		t.Fatalf("devices = %d, want 2", len(wire.Devices))
	}
	for _, d := range wire.Devices {
		if d.Name == "" || d.Kind == "" || d.Backend == "" || d.Health == "" {
			t.Errorf("station %+v missing identity fields the head renders", d)
		}
		if d.Pairs <= 0 || len(d.Channels) != d.Pairs {
			t.Errorf("station %s: pairs=%d channels=%d, want matching positive counts",
				d.Name, d.Pairs, len(d.Channels))
		}
		if d.Samples == 0 {
			t.Errorf("station %s served no samples after warmup", d.Name)
		}
	}

	// The ETag is the generation's: a quiet fleet answers 304 to
	// If-None-Match with no body, and movement changes the tag.
	etag := resp.Header.Get("ETag")
	if want := FleetETag(wire.Generation); etag != want {
		t.Fatalf("ETag = %q, want %q", etag, want)
	}
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/api/fleet", nil)
	req.Header.Set("If-None-Match", etag)
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	b2, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotModified || len(b2) != 0 {
		t.Fatalf("conditional GET on a quiet fleet: status %d body %dB, want 304 empty",
			resp2.StatusCode, len(b2))
	}

	mgr.StepAll(20 * time.Millisecond)
	resp3, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp3.Body)
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("conditional GET after movement: status %d, want 200", resp3.StatusCode)
	}
	if resp3.Header.Get("ETag") == etag {
		t.Error("ETag unchanged after the fleet moved")
	}
}

// TestFleetJSONNonFinite: a station whose readings overflow to +Inf (a
// calibration gain of 1e308) must not blank the leaf's /api/fleet — the
// body stays valid JSON, the station's non-finite readings travel as
// null, and its neighbour's readings are untouched.
func TestFleetJSONNonFinite(t *testing.T) {
	_, srv := wireLeaf(t, "inf=synth|calib:1e308:1e308,ok=synth")
	resp, err := http.Get(srv.URL + "/api/fleet")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, %v", resp.StatusCode, err)
	}
	var wire struct {
		Devices []struct {
			Name  string   `json:"name"`
			Watts *float64 `json:"watts"`
		} `json:"devices"`
	}
	if err := json.Unmarshal(body, &wire); err != nil {
		t.Fatalf("decode %d-byte /api/fleet: %v", len(body), err)
	}
	if len(wire.Devices) != 2 {
		t.Fatalf("devices = %d, want 2", len(wire.Devices))
	}
	if d := wire.Devices[0]; d.Name != "inf" || d.Watts != nil {
		t.Errorf("overflowed station %q watts = %v, want null", d.Name, d.Watts)
	}
	if d := wire.Devices[1]; d.Watts == nil || *d.Watts <= 0 {
		t.Errorf("healthy station %q watts = %v, want a positive reading", d.Name, d.Watts)
	}
	if n := resp.ContentLength; n != int64(len(body)) {
		t.Errorf("Content-Length %d, body %d bytes", n, len(body))
	}
}

// TestNonFiniteEnergyHistoryTraceJSON pins the leaf's other JSON
// answers on a station reading +Inf: the energy answer writes its
// non-finite numbers as null, and the history and trace JSON exports,
// whose encoding refuses them, answer 500 naming the refusal — none of
// them a 200 with an empty body. A healthy station beside it answers
// each path with a body that decodes.
func TestNonFiniteEnergyHistoryTraceJSON(t *testing.T) {
	_, srv := wireLeaf(t, "inf=synth|calib:1e308:1e308,ok=synth")
	for _, tc := range []struct {
		path string
		code int
	}{
		{"/api/device/inf/energy", http.StatusOK},
		{"/api/device/inf/history?format=json", http.StatusInternalServerError},
		{"/api/device/inf/trace?format=json", http.StatusInternalServerError},
		{"/api/device/ok/energy", http.StatusOK},
		{"/api/device/ok/history?format=json", http.StatusOK},
		{"/api/device/ok/trace?format=json", http.StatusOK},
	} {
		resp, err := http.Get(srv.URL + tc.path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != tc.code || len(body) == 0 {
			t.Errorf("%s: status %d with a %d-byte body, want %d with a body",
				tc.path, resp.StatusCode, len(body), tc.code)
			continue
		}
		if tc.code != http.StatusOK {
			if !strings.Contains(string(body), "unsupported value") {
				t.Errorf("%s: error body %q does not name the refused value", tc.path, body)
			}
			continue
		}
		var v map[string]any
		if err := json.Unmarshal(body, &v); err != nil {
			t.Errorf("%s: %v in %q", tc.path, err, body)
			continue
		}
		if !strings.HasSuffix(tc.path, "/energy") {
			continue
		}
		for _, k := range []string{"joules", "mean_watts"} {
			got, ok := v[k]
			if !ok {
				t.Errorf("%s: answer lacks %s: %s", tc.path, k, body)
			}
			if nonFinite := strings.HasPrefix(tc.path, "/api/device/inf/"); nonFinite != (got == nil) {
				t.Errorf("%s: %s = %v, want null exactly on the +Inf station", tc.path, k, got)
			}
		}
	}
}

// TestFleetJSONMatchesEncodingJSON pins the encoder's output, byte for
// byte, to encoding/json's compact encoding of the same FleetJSON — the
// member set, their order and every number's spelling — for statuses
// JSON can carry.
func TestFleetJSONMatchesEncodingJSON(t *testing.T) {
	mgr, _ := wireLeaf(t, "w0=synth,w1=synth|resample:1000,m0=nvml")
	devs := mgr.Snapshot()
	devs[0].Name = "tab\t \"quote\" <html> é"
	devs[1].Channels = nil
	devs[1].Joules = 1e-7
	devs[2].Watts = 1e21
	want, err := json.Marshal(FleetJSON{Schema: FleetSchemaVersion, Generation: mgr.Gen(), Devices: devs})
	if err != nil {
		t.Fatal(err)
	}
	got := AppendFleetJSON(nil, mgr.Gen(), devs)
	// encoding/json escapes <, > and & for HTML; both spellings decode
	// to the same string.
	want = []byte(strings.NewReplacer(`\u003c`, "<", `\u003e`, ">").Replace(string(want)))
	if string(got) != string(want)+"\n" {
		t.Errorf("AppendFleetJSON\n%s\nencoding/json\n%s", got, want)
	}
}

// TestFleetJSONAllocBound bounds the leaf /api/fleet handler's
// steady-state allocations on a 1k-station fleet: the pooled snapshot
// and body buffer are reused, so what remains is the ETag and header
// values — a constant, none of it proportional to fleet size.
func TestFleetJSONAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts under the race detector, so the pooled state reallocates; the bound holds only in normal builds")
	}
	var sb strings.Builder
	for i := 0; i < 1000; i++ {
		fmt.Fprintf(&sb, "st%d=synth,", i)
	}
	mgr, err := fleet.FromSpec(sb.String(), 1, fleet.Config{RingCap: 128, Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mgr.Close)
	mgr.StepAll(20 * time.Millisecond)
	// A collection inside the measurement would empty the pool; see
	// TestScrapeRenderAllocBound.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	e := New(mgr)
	w := &discardWriter{h: make(http.Header, 4)}
	req := httptest.NewRequest(http.MethodGet, "/api/fleet", nil)
	step := func() {
		mgr.StepAll(time.Millisecond) // a fresh generation: the full body path
		e.fleetJSON(w, req)
	}
	step()
	if n := testing.AllocsPerRun(20, step); n > 6 {
		t.Errorf("/api/fleet handler allocates %v per call, want <= 6 (ETag and headers only)", n)
	}
}

// TestLeafRenderer pins the renderer's segment shape: family-major rows
// matching the exporter's own family set, every label block carrying the
// leaf label first, offsets slicing cleanly, and the label cache
// surviving churn without unbounded growth.
func TestLeafRenderer(t *testing.T) {
	mgr, _ := wireLeaf(t, "r0=synth,r1=synth")
	devs := mgr.Snapshot()

	r := NewRenderer(`ra"ck`) // escaping exercised via the quote
	r.Render(devs)
	var seg Segment
	r.CopySegment(&seg)
	if seg.Offs[0] != 0 || seg.Offs[nDevFams] != len(seg.Seg) {
		t.Fatalf("offsets [%d..%d] do not span the %dB segment",
			seg.Offs[0], seg.Offs[nDevFams], len(seg.Seg))
	}
	for f := 0; f < nDevFams; f++ {
		if seg.Offs[f] > seg.Offs[f+1] {
			t.Fatalf("family %d offsets decrease: %d > %d", f, seg.Offs[f], seg.Offs[f+1])
		}
	}
	body := string(AppendSegments(nil, []Segment{seg}))
	if !strings.Contains(body, `powersensor_board_watts{leaf="ra\"ck",device="r0"}`) {
		t.Errorf("rendered body missing the leaf-labelled series:\n%s", body)
	}
	if strings.Count(body, "# HELP powersensor_board_watts ") != 1 {
		t.Error("family header not rendered exactly once")
	}

	// A second render of the same snapshot reuses cached labels and
	// produces identical bytes.
	r.Render(devs)
	var seg2 Segment
	r.CopySegment(&seg2)
	if string(seg2.Seg) != string(seg.Seg) {
		t.Error("re-render of the same snapshot changed the segment bytes")
	}

	// Churn: rendering a shrunken fleet drops the dead station's rows,
	// and heavy name churn cannot grow the label cache without bound.
	r.Render(devs[:1])
	var seg3 Segment
	r.CopySegment(&seg3)
	if strings.Contains(string(seg3.Seg), `device="r1"`) {
		t.Error("retired station survived a re-render")
	}
	churn := make([]fleet.Status, 1)
	for i := 0; i < 200; i++ {
		churn[0] = devs[0]
		churn[0].Name = "churn" + strings.Repeat("x", i%7) // 7 distinct names
		r.Render(churn)
	}
	if n := len(r.labels); n > 2*len(churn)+16+7 {
		t.Errorf("label cache grew to %d entries under churn", n)
	}
}

// TestAppendLeafSegmentsMerges pins the cross-leaf merge: one header per
// family, rows grouped by leaf within each family, exposition stays
// family-major.
func TestAppendLeafSegmentsMerges(t *testing.T) {
	mgr, _ := wireLeaf(t, "m0=synth")
	devs := mgr.Snapshot()
	var segs [2]Segment
	for i, name := range []string{"alpha", "beta"} {
		r := NewRenderer(name)
		r.Render(devs)
		r.CopySegment(&segs[i])
	}
	body := string(AppendSegments(nil, segs[:]))
	a := strings.Index(body, `powersensor_board_watts{leaf="alpha",device="m0"}`)
	b := strings.Index(body, `powersensor_board_watts{leaf="beta",device="m0"}`)
	h := strings.Index(body, "# HELP powersensor_board_watts ")
	if h < 0 || a < h || b < a {
		t.Fatalf("family merge out of order: header=%d alpha=%d beta=%d", h, a, b)
	}
	if strings.Count(body, "# HELP powersensor_board_watts ") != 1 {
		t.Error("merged body repeats the family header per leaf")
	}
}

// BenchmarkLeafRender is the cold half of the head's scrape economics:
// the full re-render of one leaf's segment, paid only when that leaf's
// generation moves. BenchmarkLeafAssemble is the hot half: assembling
// the merged fleet section from staged segments, paid on every scrape.
// BenchmarkFleetJSON measures the leaf's /api/fleet handler on a full
// body (no If-None-Match): a busy leaf's 64 PowerSensor3 rigs and a quiet
// leaf's 512 software meters. The encoding-json rows time the indented
// encoding/json body the handler wrote before, from the same snapshot,
// as an in-run baseline.
func BenchmarkFleetJSON(b *testing.B) {
	for _, c := range []struct {
		name, kinds string
		n           int
	}{{"rigs=64", "rtx4000ada,w7700,jetson,ssd", 64}, {"meters=512", "nvml,jetson-ina", 512}} {
		kinds := strings.Split(c.kinds, ",")
		var sb strings.Builder
		for i := 0; i < c.n; i++ {
			fmt.Fprintf(&sb, "st-%04d=%s,", i, kinds[i%len(kinds)])
		}
		mgr, err := fleet.FromSpec(sb.String(), 1, fleet.Config{RingCap: 256})
		if err != nil {
			b.Fatal(err)
		}
		mgr.StepAll(200 * time.Millisecond)
		e := New(mgr)
		req := httptest.NewRequest(http.MethodGet, "/api/fleet", nil)
		b.Run(c.name+"/codec", func(b *testing.B) {
			w := &discardWriter{h: make(http.Header, 4)}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e.fleetJSON(w, req)
			}
		})
		b.Run(c.name+"/encoding-json", func(b *testing.B) {
			var snap []fleet.Status
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				snap = mgr.SnapshotInto(snap[:0])
				enc := json.NewEncoder(io.Discard)
				enc.SetIndent("", "  ")
				_ = enc.Encode(FleetJSON{Schema: FleetSchemaVersion, Generation: mgr.Gen(), Devices: snap})
			}
		})
		mgr.Close()
	}
}

func BenchmarkLeafRender(b *testing.B) {
	for _, size := range []int{32, 128} {
		b.Run(benchSizeName(size), func(b *testing.B) {
			devs := benchStatuses(b, size)
			r := NewRenderer("leaf0")
			r.Render(devs) // warm the label cache; steady state re-renders
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.Render(devs)
			}
		})
	}
}

func BenchmarkLeafAssemble(b *testing.B) {
	for _, size := range []int{32, 128} {
		b.Run(benchSizeName(size), func(b *testing.B) {
			devs := benchStatuses(b, size)
			var segs [4]Segment
			for i := range segs {
				r := NewRenderer("leaf" + string(rune('0'+i)))
				r.Render(devs)
				r.CopySegment(&segs[i])
			}
			var buf []byte
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = AppendSegments(buf[:0], segs[:])
			}
		})
	}
}

func benchSizeName(n int) string {
	if n == 32 {
		return "32"
	}
	return "128"
}

func benchStatuses(b *testing.B, size int) []fleet.Status {
	b.Helper()
	var sb strings.Builder
	for i := 0; i < size; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString("bs")
		sb.WriteByte(byte('0' + i/100%10))
		sb.WriteByte(byte('0' + i/10%10))
		sb.WriteByte(byte('0' + i%10))
		sb.WriteString("=synth")
	}
	mgr, err := fleet.FromSpec(sb.String(), 1, fleet.Config{RingCap: 128})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(mgr.Close)
	mgr.StepAll(20 * time.Millisecond)
	return mgr.Snapshot()
}
