// Tests of the head's /api/fleet decoder, its trust boundary: whatever
// bytes a leaf serves, decoding either refuses them or yields statuses
// the segment renderer renders without panicking, and a body it accepts
// is one encoding/json accepts too. The codec round trip pins that the
// leaf's encoder and the head's decoder agree bit for bit.

package federation

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"testing/iotest"
	"time"

	"repro/internal/export"
	"repro/internal/fleet"
)

// decodeFleet decodes one /api/fleet body with a fresh decoder.
func decodeFleet(body []byte) (*export.FleetJSON, error) {
	var d fleetDecoder
	return d.decode(body)
}

// liveFleet returns a stepped two-synth-station leaf's snapshot and
// generation — the fleet TestFleetJSONWireFormat serves.
func liveFleet(t testing.TB) (uint64, []fleet.Status) {
	mgr, err := fleet.FromSpec("w0=synth,w1=synth", 1, fleet.Config{RingCap: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	mgr.StepAll(20 * time.Millisecond)
	return mgr.Gen(), mgr.Snapshot()
}

func FuzzLeafFleetBody(f *testing.F) {
	// Seeds: the compact body a live two-station leaf serves, the same
	// body indented as older leaves served it, the skewed body
	// TestHeadMalformedLeafBody serves, and bodies exercising null
	// readings, escapes, surrogates, unknown and case-folded members.
	gen, devs := liveFleet(f)
	f.Add(export.AppendFleetJSON(nil, gen, devs))
	legacy, err := json.MarshalIndent(export.FleetJSON{
		Schema: export.FleetSchemaVersion, Generation: gen, Devices: devs}, "", "  ")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(legacy)
	f.Add([]byte(`{"schema":1,"generation":7,"devices":[{"name":"x","backend":"b","kind":"k","pairs":1,"channels":["c"],"pair_watts":[1,2,3]}]}`))
	f.Add([]byte(`{"schema":1,"generation":18446744073709551615,"devices":[{"name":"x","pairs":2,"watts":null,"pair_watts":[null,1e-7],"joules":-0}]}`))
	f.Add([]byte(`{"schema":1,"devices":[{"name":"a\"b\\cé😀\ud800x\/\t","channels":["\u0000",null],"pairs":2}]}`))
	f.Add([]byte(`{"extra":{"a":[true,false,null,{}]},"schema":1,"devices":[{"Pairs":1,"ſtate":"x","future":[1.5e300]}]}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		v, err := decodeFleet(body)
		if err != nil {
			return
		}
		var ref export.FleetJSON
		if err := json.Unmarshal(body, &ref); err != nil {
			t.Fatalf("decoder accepted a body encoding/json refuses: %v\n%q", err, body)
		}
		r := export.NewRenderer(`le"af`)
		r.Render(v.Devices)
		r.Render(v.Devices) // the warm-cache path
		segs := make([]export.Segment, 1)
		r.CopySegment(&segs[0])
		export.AppendSegments(nil, segs)
	})
}

// FuzzFleetCodec round-trips fuzz-built statuses through the leaf's
// encoder and the head's decoder: everything comes back identical, floats
// bit for bit, except what JSON cannot carry — a non-finite reading
// comes back NaN, and a string's invalid UTF-8 comes back as
// encoding/json would deliver it.
func FuzzFleetCodec(f *testing.F) {
	f.Add("gpu0", "rtx4000ada", "12V", uint8(2), 21.5, -0.0, uint64(1)<<63+5, int64(-3))
	f.Add("a\"\\\n\x01é\xff", "", " ", uint8(4), math.Inf(1), math.NaN(), uint64(0), int64(math.MinInt64))
	f.Add("x", "k", "c", uint8(1), 5e-324, 1e21, uint64(math.MaxUint64), int64(math.MaxInt64))
	f.Fuzz(func(t *testing.T, name, kind, ch string, n uint8, f1, f2 float64, u uint64, i int64) {
		pairs := int(n % 5)
		devs := make([]fleet.Status, 0, 3)
		for k := 0; k < 3; k++ {
			s := fleet.Status{
				Name: name + fmt.Sprint(k), Kind: kind, Backend: ch + kind, RateHz: f2,
				Pairs: pairs, Now: time.Duration(i), Watts: f1, Joules: f2 * f1,
				State: name, Samples: u, Marks: u >> k, Resyncs: int(i >> k),
				OverheadSeconds: -f1, RingLen: int(i), RingTotal: u + 1,
				Health: ch, Gaps: u * 3, Flatlines: u >> 1, SpikesQuarantined: 7, Restarts: u & 1,
			}
			if k > 0 { // the first station keeps nil slices
				s.Channels = make([]string, pairs%(k+1))
				for c := range s.Channels {
					s.Channels[c] = ch + fmt.Sprint(c)
				}
				s.PairWatts = make([]float64, pairs)
				for c := range s.PairWatts {
					s.PairWatts[c] = f1 / float64(c+k)
				}
			}
			devs = append(devs, s)
		}
		body := export.AppendFleetJSON(nil, u, devs)
		if !json.Valid(body) {
			t.Fatalf("encoder wrote invalid JSON: %q", body)
		}
		v, err := decodeFleet(body)
		if err != nil {
			t.Fatalf("decode own body: %v\n%q", err, body)
		}
		if v.Generation != u || len(v.Devices) != len(devs) {
			t.Fatalf("generation %d devices %d, want %d and %d", v.Generation, len(v.Devices), u, len(devs))
		}
		for k := range devs {
			if err := sameOnWire(devs[k], v.Devices[k]); err != nil {
				t.Fatalf("station %d: %v\nbody %q", k, err, body)
			}
		}
	})
}

// sameOnWire reports how got differs from what want must decode as.
func sameOnWire(want, got fleet.Status) error {
	float := func(field string, w, g float64) error {
		if math.IsNaN(w) || math.IsInf(w, 0) {
			if !math.IsNaN(g) {
				return fmt.Errorf("%s = %v, want NaN for %v", field, g, w)
			}
			return nil
		}
		if math.Float64bits(w) != math.Float64bits(g) {
			return fmt.Errorf("%s = %v (%#x), want %v (%#x)", field, g, math.Float64bits(g), w, math.Float64bits(w))
		}
		return nil
	}
	for _, c := range []struct {
		field string
		w, g  float64
	}{{"rate_hz", want.RateHz, got.RateHz}, {"watts", want.Watts, got.Watts},
		{"joules", want.Joules, got.Joules}, {"overhead_seconds", want.OverheadSeconds, got.OverheadSeconds}} {
		if err := float(c.field, c.w, c.g); err != nil {
			return err
		}
	}
	if (want.PairWatts == nil) != (got.PairWatts == nil) || len(want.PairWatts) != len(got.PairWatts) {
		return fmt.Errorf("pair_watts = %v, want %v", got.PairWatts, want.PairWatts)
	}
	for i := range want.PairWatts {
		if err := float(fmt.Sprintf("pair_watts[%d]", i), want.PairWatts[i], got.PairWatts[i]); err != nil {
			return err
		}
	}
	// Strings come back as encoding/json would deliver them.
	viaJSON := func(s string) string {
		b, _ := json.Marshal(s)
		var out string
		_ = json.Unmarshal(b, &out)
		return out
	}
	want.Name, want.Kind, want.Backend = viaJSON(want.Name), viaJSON(want.Kind), viaJSON(want.Backend)
	want.State, want.Health = viaJSON(want.State), viaJSON(want.Health)
	if want.Channels != nil {
		want.Channels = append([]string{}, want.Channels...)
		for i := range want.Channels {
			want.Channels[i] = viaJSON(want.Channels[i])
		}
	}
	want.RateHz, want.Watts, want.Joules, want.OverheadSeconds, want.PairWatts = 0, 0, 0, 0, nil
	got.RateHz, got.Watts, got.Joules, got.OverheadSeconds, got.PairWatts = 0, 0, 0, 0, nil
	if !reflect.DeepEqual(want, got) {
		return fmt.Errorf("got %+v\nwant %+v", got, want)
	}
	return nil
}

// TestDecodeFleetMatchesEncodingJSON decodes a live leaf's body both in
// the compact form a leaf serves now and in the indented form older
// schema-1 leaves served, and checks both against encoding/json's view.
func TestDecodeFleetMatchesEncodingJSON(t *testing.T) {
	gen, devs := liveFleet(t)
	compact := export.AppendFleetJSON(nil, gen, devs)
	legacy, err := json.MarshalIndent(export.FleetJSON{
		Schema: export.FleetSchemaVersion, Generation: gen, Devices: devs}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string][]byte{"compact": compact, "indented": legacy} {
		var want export.FleetJSON
		if err := json.Unmarshal(body, &want); err != nil {
			t.Fatal(err)
		}
		got, err := decodeFleet(body)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(*got, want) {
			t.Errorf("%s body decodes to\n%+v\nwant\n%+v", name, *got, want)
		}
	}
	if len(compact) >= len(legacy) {
		t.Errorf("compact body %d bytes, indented %d", len(compact), len(legacy))
	}
}

// TestDecodeOlderLeafDropped: an older leaf still sends a "dropped"
// member (a subscriber fan-out counter the wire no longer carries) on
// every station. The head skips it, so that body decodes and renders
// exactly as the same body without it.
func TestDecodeOlderLeafDropped(t *testing.T) {
	gen, devs := liveFleet(t)
	body := export.AppendFleetJSON(nil, gen, devs)
	older := bytes.ReplaceAll(body, []byte(`,"ring_len":`), []byte(`,"dropped":12,"ring_len":`))
	if n := bytes.Count(older, []byte(`"dropped":12`)); n != len(devs) {
		t.Fatalf("older body carries %d dropped members, want %d", n, len(devs))
	}
	want, err := decodeFleet(body)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeFleet(older)
	if err != nil {
		t.Fatalf("older leaf body refused: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("older body decodes to\n%+v\nwant\n%+v", *got, *want)
	}
	render := func(devs []fleet.Status) []byte {
		r := export.NewRenderer("old")
		r.Render(devs)
		segs := make([]export.Segment, 1)
		r.CopySegment(&segs[0])
		return export.AppendSegments(nil, segs)
	}
	if a, b := render(got.Devices), render(want.Devices); !bytes.Equal(a, b) {
		t.Errorf("older body renders\n%s\nwant\n%s", a, b)
	}
}

// TestDecodeFleetValues pins the decoder's value semantics: null readings
// are NaN, generations are exact to the last bit, strings unescape as
// encoding/json unescapes them, and unknown members are skipped.
func TestDecodeFleetValues(t *testing.T) {
	body := `{"future":{"x":[1,{"y":null}]},"schema":1,"generation":18446744073709551615,"devices":[` +
		`{"name":"a\"\\\/\b\f\n\r\té😀𐀀x\ud800A` + "\xff" + `\ud83d\ude00","pairs":2,` +
		`"watts":null,"pair_watts":[null,0.1],"joules":1e308,"channels":["c",null],"new":true},null]}`
	v, err := decodeFleet([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	var ref struct {
		Devices []struct{ Name string } `json:"devices"`
	}
	if err := json.Unmarshal([]byte(body), &ref); err != nil {
		t.Fatal(err)
	}
	if v.Generation != math.MaxUint64 {
		t.Errorf("generation = %d, want %d", v.Generation, uint64(math.MaxUint64))
	}
	if len(v.Devices) != 2 {
		t.Fatalf("devices = %d, want 2 (a null station decodes as zero)", len(v.Devices))
	}
	d := v.Devices[0]
	if d.Name != ref.Devices[0].Name {
		t.Errorf("name = %q, want %q as encoding/json unescapes it", d.Name, ref.Devices[0].Name)
	}
	if !math.IsNaN(d.Watts) || !math.IsNaN(d.PairWatts[0]) || d.PairWatts[1] != 0.1 || d.Joules != 1e308 {
		t.Errorf("readings watts=%v pair_watts=%v joules=%v, want NaN [NaN 0.1] 1e308", d.Watts, d.PairWatts, d.Joules)
	}
	if !reflect.DeepEqual(d.Channels, []string{"c", ""}) {
		t.Errorf("channels = %q", d.Channels)
	}
	if !reflect.DeepEqual(v.Devices[1], fleet.Status{}) {
		t.Errorf("null station = %+v, want zero", v.Devices[1])
	}
}

// TestDecodeFleetRefuses lists bodies the head must refuse: malformed
// JSON, wrong member types, out-of-range numbers, trailing data, schema
// skew and impossible station shapes.
func TestDecodeFleetRefuses(t *testing.T) {
	for _, body := range []string{
		``,
		`null`,
		`[]`,
		`{"schema":1,"devices":[]} x`,
		`{"schema":1,"devices":[],}`,
		`{"schema":1,,"devices":[]}`,
		`{"schema":1 "devices":[]}`,
		`{"schema":1,"devices":[{"name":"x",}]}`,
		`{"schema":1,"devices":[1]}`,
		`{"schema":2,"devices":[]}`,
		`{"schema":1.0,"devices":[]}`,
		`{"schema":1,"generation":-1}`,
		`{"schema":1,"generation":18446744073709551616}`,
		`{"schema":1,"devices":[{"name":5}]}`,
		`{"schema":1,"devices":[{"pairs":"2"}]}`,
		`{"schema":1,"devices":[{"watts":1e400}]}`,
		`{"schema":1,"devices":[{"watts":01}]}`,
		`{"schema":1,"devices":[{"watts":1.}]}`,
		`{"schema":1,"devices":[{"watts":-}]}`,
		`{"schema":1,"devices":[{"watts":NaN}]}`,
		`{"schema":1,"devices":[{"name":"a` + "\x01" + `"}]}`,
		`{"schema":1,"devices":[{"name":"\x"}]}`,
		`{"schema":1,"devices":[{"name":"\u12"}]}`,
		`{"schema":1,"devices":[{"name":"open}]}`,
		`{"schema":1,"x":tru}`,
		`{"schema":1,"x":nul}`,
		`{"schema":1,"devices":[{"Pairs":"2"}]}`,
		`{"schema":1,"devices":[{"pairs":-1}]}`,
		`{"schema":1,"devices":[{"pairs":5}]}`,
		`{"schema":1,"devices":[{"pairs":1,"pair_watts":[1,2]}]}`,
		`{"schema":1,"devices":[{"pairs":1,"channels":["a","b"]}]}`,
		`{"schema":1,"x":` + strings.Repeat("[", maxNesting) + strings.Repeat("]", maxNesting) + `}`,
	} {
		if v, err := decodeFleet([]byte(body)); err == nil {
			t.Errorf("accepted %.80q: %+v", body, v)
		}
	}
	// encoding/json's nesting limit, exactly: the top-level object is
	// one level, so 9999 more still decode.
	deep := `{"schema":1,"x":` + strings.Repeat("[", maxNesting-1) + strings.Repeat("]", maxNesting-1) + `}`
	if _, err := decodeFleet([]byte(deep)); err != nil {
		t.Errorf("refused nesting at the limit: %v", err)
	}
}

// TestFetchFleetBodyCap: a leaf declaring a body over maxFleetBody is
// refused with an explicit error before any of it is read, and the
// client still decodes the leaf's next, well-sized body. (A body that
// declares no length meets the same cap inside readCapped; see
// TestReadCappedShortReads.)
func TestFetchFleetBodyCap(t *testing.T) {
	var oversized atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if oversized.Load() {
			w.Header().Set("Content-Length", fmt.Sprint(maxFleetBody+1))
		}
		_, _ = io.WriteString(w, `{"schema":1,"devices":[]}`)
	}))
	defer srv.Close()
	c := leafClient{name: "l", url: srv.URL, http: srv.Client()}
	oversized.Store(true)
	if _, _, _, err := c.fetchFleet(context.Background(), ""); err == nil || !strings.Contains(err.Error(), "cap") {
		t.Errorf("oversized body: err = %v, want the size cap", err)
	}
	oversized.Store(false)
	if v, _, _, err := c.fetchFleet(context.Background(), ""); err != nil || v.Devices == nil {
		t.Errorf("well-sized body after an oversized one: %v, %v", v, err)
	}
}

// TestReadCappedShortReads reads through a one-byte-at-a-time reader,
// with and without a length hint.
func TestReadCappedShortReads(t *testing.T) {
	want := bytes.Repeat([]byte("0123456789"), 300)
	for _, hint := range []int64{-1, int64(len(want))} {
		got, err := readCapped(nil, iotest.OneByteReader(bytes.NewReader(want)), hint, 1<<20)
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("hint %d: %d bytes, %v", hint, len(got), err)
		}
	}
	if _, err := readCapped(nil, bytes.NewReader(want), -1, int64(len(want)-1)); err == nil {
		t.Error("body one byte over the limit read without error")
	}
}

// BenchmarkDecodeFleet measures the head's decode of one leaf body: a
// busy leaf's 64 PowerSensor3 rigs and a quiet leaf's 512 software
// meters. The encoding-json rows decode the indented body leaves served
// before with encoding/json, as an in-run baseline.
func BenchmarkDecodeFleet(b *testing.B) {
	for _, c := range []struct {
		name, kinds string
		n           int
	}{{"rigs=64", "rtx4000ada,w7700,jetson,ssd", 64}, {"meters=512", "nvml,jetson-ina", 512}} {
		b.Run(c.name, func(b *testing.B) {
			kinds := strings.Split(c.kinds, ",")
			var sb strings.Builder
			for i := 0; i < c.n; i++ {
				fmt.Fprintf(&sb, "st-%04d=%s,", i, kinds[i%len(kinds)])
			}
			mgr, err := fleet.FromSpec(sb.String(), 1, fleet.Config{RingCap: 256})
			if err != nil {
				b.Fatal(err)
			}
			defer mgr.Close()
			mgr.StepAll(200 * time.Millisecond)
			body := export.AppendFleetJSON(nil, mgr.Gen(), mgr.Snapshot())
			legacy, err := json.MarshalIndent(export.FleetJSON{
				Schema: export.FleetSchemaVersion, Generation: mgr.Gen(), Devices: mgr.Snapshot()}, "", "  ")
			if err != nil {
				b.Fatal(err)
			}
			b.Run("codec", func(b *testing.B) {
				var d fleetDecoder
				b.SetBytes(int64(len(body)))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := d.decode(body); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run("encoding-json", func(b *testing.B) {
				b.SetBytes(int64(len(legacy)))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					var v export.FleetJSON
					if err := json.NewDecoder(bytes.NewReader(legacy)).Decode(&v); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}
