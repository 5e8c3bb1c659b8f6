// Federation: aggregate two leaf daemons behind one head, then kill a
// leaf and watch the head degrade gracefully instead of stalling.
//
// Two in-process leaves each serve a small fleet over the standard psd
// HTTP API — leaves need no federation-specific code at all. A head
// (internal/federation, what psd -federate runs) polls their /api/fleet
// with per-leaf timeouts and circuit breakers and serves the merged
// view: every station series gains a leaf label, so the two fleets'
// identically-named stations stay distinct. The demo's second act cuts
// rack-b's network: the head keeps answering scrapes, rack-b's
// last-known stations serve marked stale, powersensor_leaf_up drops to
// 0, and the lifecycle event log records the outage. The third act
// restores it and the head converges back — up 1 → 0 → 1.
//
//	go run ./examples/federation
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/export"
	"repro/internal/federation"
	"repro/internal/fleet"
)

// flakyLeaf fronts a leaf handler with a kill switch: down, it cuts the
// connection the way a crashed daemon would.
type flakyLeaf struct {
	h    http.Handler
	down atomic.Bool
}

func (f *flakyLeaf) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if f.down.Load() {
		if hj, ok := w.(http.Hijacker); ok {
			if conn, _, err := hj.Hijack(); err == nil {
				conn.Close()
				return
			}
		}
		http.Error(w, "down", http.StatusBadGateway)
		return
	}
	f.h.ServeHTTP(w, r)
}

func newLeaf(spec string) (*fleet.Manager, *flakyLeaf, *httptest.Server) {
	mgr, err := fleet.FromSpec(spec, 1, fleet.Config{RingCap: 1024})
	if err != nil {
		log.Fatal(err)
	}
	mgr.StepAll(50 * time.Millisecond) // warm up so the first poll sees data
	fl := &flakyLeaf{h: export.New(mgr).Handler()}
	return mgr, fl, httptest.NewServer(fl)
}

// show prints the head-side lines that tell the story: leaf health and
// one station series per leaf.
func show(head *federation.Head, label string) {
	fmt.Printf("── %s\n", label)
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec := httptest.NewRecorder()
	head.Handler().ServeHTTP(rec, req)
	body, _ := io.ReadAll(rec.Result().Body)
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, "powersensor_leaf_up{") ||
			strings.HasPrefix(line, "powersensor_leaf_breaker_state{") ||
			strings.Contains(line, `powersensor_station_health{leaf=`) {
			fmt.Println("  ", line)
		}
	}
}

func main() {
	// Two leaves, deliberately reusing station names: the head's leaf
	// label is what keeps rack-a's gpu0 and rack-b's gpu0 apart.
	mgrA, _, leafA := newLeaf("gpu0=rtx4000ada,node0=rapl")
	defer leafA.Close()
	defer mgrA.Close()
	mgrB, flakyB, leafB := newLeaf("gpu0=w7700,node0=nvml")
	defer leafB.Close()
	defer mgrB.Close()

	head, err := federation.New(federation.Config{
		Leaves: []federation.Leaf{
			{Name: "rack-a", URL: leafA.URL},
			{Name: "rack-b", URL: leafB.URL},
		},
		Interval:      200 * time.Millisecond,
		Timeout:       100 * time.Millisecond,
		FailThreshold: 3,
	})
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()

	// Act 1 — both racks up: every station fresh, grouped by leaf.
	head.PollOnce(ctx)
	show(head, "both racks up")

	// Act 2 — rack-b dies. The head keeps answering: rack-a stays
	// fresh, rack-b's last-known stations serve at health 3 (stale) and
	// its leaf_up gauge drops; three straight failures open its breaker,
	// so later rounds cost one rejected decision, not a timeout.
	flakyB.down.Store(true)
	for i := 0; i < 3; i++ {
		head.PollOnce(ctx)
	}
	show(head, "rack-b down (stations stale, breaker open)")

	// Act 3 — rack-b restarts. PollOnce here stands in for the poll
	// loop's next tick after the breaker's cooldown; the half-open probe
	// succeeds, the breaker closes, and the view converges fresh.
	flakyB.down.Store(false)
	mgrB.StepAll(50 * time.Millisecond)
	time.Sleep(850 * time.Millisecond) // let the 4×interval cooldown lapse
	head.PollOnce(ctx)
	show(head, "rack-b recovered")

	fmt.Println("── lifecycle events")
	for _, ev := range head.Events().Tail(0) {
		fmt.Printf("   %-8s leaf=%s %s\n", ev.Type, ev.Station, ev.Reason)
	}
}
