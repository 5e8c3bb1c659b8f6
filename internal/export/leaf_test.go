// Tests pinning the federation wire format — the versioned /api/fleet
// JSON body and its ETag discipline — and the segment renderer under a
// leaf label, as a head merges leaf fleets with it.

package export

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
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
