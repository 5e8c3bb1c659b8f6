package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Operations the open-loop generator sends.
const (
	opLeafMetrics = iota // GET /metrics on a leaf
	opLeafEnergy         // GET /api/device/{name}/energy on a leaf
	opHeadEnergy         // GET /api/device/{leaf}/{name}/energy on the head
)

var opNames = [...]string{"leaf_metrics", "leaf_energy", "head_energy"}

// opRate is one stream of the open-loop mix. Leaf operations go to the
// first leaf: the only one, or federated's busy one.
type opRate struct {
	kind  int
	perS  float64
	class string // end-to-end latency class ("scrape", "energy") or ""
}

// op is one scheduled request. Energy windows are drawn from the seed as
// fractions and resolved against the station's clock when sent.
type op struct {
	due     time.Duration
	kind    int
	class   string
	station int     // index into the energy candidates
	from    float64 // window start as a fraction of the room before now
	width   float64 // window width in seconds; 0 asks for a zero-width window
}

// energyWidths are the window widths energy queries draw from, seconds.
var energyWidths = []float64{0.05, 0.2, 1, 2}

// schedule lays the mix out over dur: each stream a seeded Poisson
// process at its rate, as independent users arrive, energy queries on
// seeded stations and windows, one in twenty of them zero-width. Random
// arrivals sample every phase of the daemon's own periodic work (steps,
// history syncs), where a fixed interval would
// alias with it and sample the same few phases for a whole run.
func schedule(rng *rand.Rand, mix []opRate, dur time.Duration, stations int) []op {
	var ops []op
	for _, r := range mix {
		gap := func() time.Duration {
			return time.Duration(rng.ExpFloat64() / r.perS * float64(time.Second))
		}
		for t := gap(); t < dur; t += gap() {
			o := op{due: t, kind: r.kind, class: r.class}
			if r.kind == opLeafEnergy || r.kind == opHeadEnergy {
				o = energyOp(rng, o, stations)
			}
			ops = append(ops, o)
		}
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i].due < ops[j].due })
	return ops
}

// energyOp draws o's station and window from rng.
func energyOp(rng *rand.Rand, o op, stations int) op {
	o.station = rng.IntN(stations)
	o.from = rng.Float64()
	if rng.IntN(20) != 0 {
		o.width = energyWidths[rng.IntN(len(energyWidths))]
	}
	return o
}

// energyTarget is a station the generator may query.
type energyTarget struct {
	leaf int
	name string
}

// loadStats collects one phase's end-to-end samples and op outcomes.
type loadStats struct {
	mu        sync.Mutex
	lat       map[string][]float64 // ms, by class
	late      []float64            // ms the generator sent after the due time
	attempted int64
	failed    int64
	firstErr  error
}

func newLoadStats() *loadStats { return &loadStats{lat: map[string][]float64{}} }

func (s *loadStats) ok(class string, ms float64) {
	s.mu.Lock()
	s.attempted++
	if class != "" {
		s.lat[class] = append(s.lat[class], ms)
	}
	s.mu.Unlock()
}

func (s *loadStats) fail(err error) {
	s.mu.Lock()
	s.attempted++
	s.failed++
	if s.firstErr == nil {
		s.firstErr = err
	}
	s.mu.Unlock()
}

func (s *loadStats) lateness(ms float64) {
	s.mu.Lock()
	s.late = append(s.late, ms)
	s.mu.Unlock()
}

// generator sends an open-loop schedule from a fixed set of request
// goroutines, each with one keep-alive connection per daemon it talks to.
type generator struct {
	d        *deployment
	chk      *checker
	stats    *loadStats
	targets  []energyTarget
	vnow     func() time.Duration // the fleet's current virtual time
	nextID   *atomic.Int64
	measured bool
}

// newClient returns a request goroutine's client: its own transport, one
// connection per host.
func newClient() (*http.Client, *http.Transport) {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1,
		IdleConnTimeout: time.Minute, DisableCompression: true}
	return &http.Client{Transport: tr, Timeout: 10 * time.Second}, tr
}

// run sends ops from workers goroutines and returns when every op due
// before the end of the schedule has completed.
func (g *generator) run(ops []op, workers int, start time.Time) {
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client, tr := newClient()
			defer tr.CloseIdleConnections()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= len(ops) {
					return
				}
				o := ops[i]
				due := start.Add(o.due)
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				g.send(client, w, o, due)
			}
		}(w)
	}
	wg.Wait()
}

// get performs one GET and reads the body into buf, returning the send
// and completion times.
func (g *generator) get(client *http.Client, url, route string, buf io.Writer) (status int, send, done time.Time, err error) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return 0, send, done, err
	}
	var id int64
	if g.d.tr != nil {
		id = g.nextID.Add(1)
		req.Header.Set(requestIDHeader, strconv.FormatInt(id, 10))
	}
	send = time.Now()
	resp, err := client.Do(req)
	if err != nil {
		return 0, send, time.Now(), err
	}
	_, err = io.Copy(buf, resp.Body)
	resp.Body.Close()
	done = time.Now()
	if g.d.tr != nil && err == nil {
		g.d.tr.request(id, route, send, done)
	}
	return resp.StatusCode, send, done, err
}

// send runs one op and records its latency from the due time. A zero due
// time marks a closed-loop op: timed from its send, never late.
func (g *generator) send(client *http.Client, worker int, o op, due time.Time) {
	scrape := o.kind == opLeafMetrics
	url := g.d.leaves[0].url + "/metrics"
	if !scrape {
		url = g.energyURL(o)
	}
	buf := g.chk.buffer()
	status, send, done, err := g.get(client, url, routeOf(pathOf(url)), buf)
	if due.IsZero() {
		due = send
	} else if g.measured {
		g.stats.lateness(ms(send.Sub(due)))
	}
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("GET %s: status %d", url, status)
	}
	if err == nil && !scrape {
		err = checkEnergy(buf.Bytes(), o.width == 0)
	}
	if err != nil {
		g.chk.pool.Put(buf)
		g.stats.fail(fmt.Errorf("%s: %w", opNames[o.kind], err))
		return
	}
	if scrape {
		g.chk.submit(checkJob{kind: jobLeafMetrics, worker: worker, leaf: g.d.leaves[0].plan.name,
			body: buf, recv: done, measured: g.measured})
	} else {
		g.chk.pool.Put(buf)
	}
	class := o.class
	if !g.measured {
		class = ""
	}
	g.stats.ok(class, ms(done.Sub(due)))
}

// energyURL resolves an energy op's seeded window against the fleet's
// current virtual time.
func (g *generator) energyURL(o op) string {
	t := g.targets[o.station]
	now := g.vnow().Seconds()
	from := o.from * math.Max(0, now-o.width)
	to := from + o.width
	q := "?from=" + strconv.FormatFloat(from, 'f', 6, 64) + "&to=" + strconv.FormatFloat(to, 'f', 6, 64)
	leaf := g.d.leaves[t.leaf]
	if o.kind == opHeadEnergy {
		return g.d.headURL + "/api/device/" + leaf.plan.name + "/" + t.name + "/energy" + q
	}
	return leaf.url + "/api/device/" + t.name + "/energy" + q
}

// pathOf returns the path of an absolute http URL.
func pathOf(url string) string {
	const scheme = "http://"
	rest := url[len(scheme):]
	for i := 0; i < len(rest); i++ {
		if rest[i] == '/' {
			path := rest[i:]
			for j := 0; j < len(path); j++ {
				if path[j] == '?' {
					return path[:j]
				}
			}
			return path
		}
	}
	return "/"
}

// checkEnergy verifies one /energy answer: finite and non-negative, and
// exactly zero for a zero-width window.
func checkEnergy(body []byte, zeroWidth bool) error {
	var a struct {
		Joules    *float64 `json:"joules"`
		MeanWatts *float64 `json:"mean_watts"`
	}
	if err := json.Unmarshal(body, &a); err != nil {
		return fmt.Errorf("energy answer: %w", err)
	}
	if a.Joules == nil || a.MeanWatts == nil {
		return fmt.Errorf("energy answer lacks joules or mean_watts: %s", body)
	}
	j, w := *a.Joules, *a.MeanWatts
	if math.IsNaN(j) || math.IsInf(j, 0) || j < 0 || math.IsNaN(w) || math.IsInf(w, 0) || w < 0 {
		return fmt.Errorf("energy answer not finite and non-negative: %s", body)
	}
	if zeroWidth && (j != 0 || w != 0) {
		return fmt.Errorf("zero-width window answered %g J, %g W", j, w)
	}
	return nil
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the q-quantile of v by linear interpolation between
// order statistics; NaN for no samples.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
