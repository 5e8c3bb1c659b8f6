package export

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/trace"
)

// FuzzWindowTime drives arbitrary ?from=/?to= values through the energy
// and history handlers, the query parameters' trust boundary. Neither
// handler may panic; a 200 body never carries NaN (nor, for energy, a
// null reading); and an inverted window answers exactly 0 J at 0 W, and
// an empty history.
func FuzzWindowTime(f *testing.F) {
	for _, seed := range [][2]string{
		{"0.05", "0.25"}, {"100ms", "100ms"}, {"0.25", "0.05"}, {"", ""},
		{"NaN", ""}, {"", "Inf"}, {"-Inf", "+Inf"}, {"1e10", ""},
		{"-5", ""}, {"9223372036.854775807", ""}, {"9223372036.8547", ""},
		{"1e400", "-0"}, {"2562047h", ""}, {"bogus", "1.5s"},
	} {
		f.Add(seed[0], seed[1])
	}
	mgr, err := fleet.FromSpec("gpu0=rtx4000ada", 1, fleet.Config{})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(mgr.Close)
	mgr.StepAll(100 * time.Millisecond)
	h := New(mgr).Handler()
	now := mgr.Device("gpu0").Status().Now

	f.Fuzz(func(t *testing.T, from, to string) {
		q := url.Values{}
		lo, hi := time.Duration(0), now
		valid := true
		if from != "" {
			q.Set("from", from)
			var err error
			lo, err = parseWindowTime(from)
			valid = valid && err == nil
		}
		if to != "" {
			q.Set("to", to)
			var err error
			hi, err = parseWindowTime(to)
			valid = valid && err == nil
		}
		serve := func(path string) (int, string) {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path+"?"+q.Encode(), nil))
			return rec.Code, rec.Body.String()
		}

		want := http.StatusOK
		if !valid {
			want = http.StatusBadRequest
		}

		code, body := serve("/api/device/gpu0/energy")
		if code != want {
			t.Fatalf("energy from=%q to=%q: status %d, want %d: %s", from, to, code, want, body)
		}
		if code == http.StatusOK {
			if strings.Contains(body, "NaN") || strings.Contains(body, "null") {
				t.Fatalf("energy from=%q to=%q: non-finite reading in %s", from, to, body)
			}
			var ans struct {
				Joules    float64 `json:"joules"`
				MeanWatts float64 `json:"mean_watts"`
			}
			if err := json.Unmarshal([]byte(body), &ans); err != nil {
				t.Fatalf("energy from=%q to=%q: %v in %s", from, to, err, body)
			}
			if lo >= hi && (ans.Joules != 0 || ans.MeanWatts != 0) {
				t.Fatalf("empty window [%v, %v] answered %v J at %v W", lo, hi, ans.Joules, ans.MeanWatts)
			}
		}

		code, body = serve("/api/device/gpu0/history")
		if code != want {
			t.Fatalf("history from=%q to=%q: status %d, want %d: %s", from, to, code, want, body)
		}
		if code != http.StatusOK {
			return
		}
		if strings.Contains(body, "NaN") {
			t.Fatalf("history from=%q to=%q: NaN in body", from, to)
		}
		tr, err := trace.ReadCSV(strings.NewReader(body))
		if err != nil {
			t.Fatalf("history from=%q to=%q: %v", from, to, err)
		}
		if lo > hi && len(tr.Points) != 0 {
			t.Fatalf("inverted window [%v, %v] served %d history points", lo, hi, len(tr.Points))
		}
	})
}
