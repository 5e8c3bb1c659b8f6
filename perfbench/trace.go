package main

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/source"
)

// tracer collects the traced run's spans and counters, all timed from
// outside the daemon: around the public calls into each layer, in HTTP
// middleware, and in the head's transport. A nil *tracer is the untraced
// program — no wrapper is installed and nothing is recorded.
//
// Coarse boundaries (StepAll, SyncHistory, PollOnce, each HTTP request
// and handler) keep one span each. Per-station ReadInto calls run into
// the millions, so they are folded into counters and into per-StepAll
// aggregates instead.
type tracer struct {
	t0        time.Time
	measuring atomic.Bool

	reads readCounters

	// cover tracks the union of the outermost per-station ReadInto spans
	// while a StepAll is open: StepAll's self time is its wall time minus
	// that union, which parallel shard workers make smaller than the sum.
	coverOn atomic.Bool
	coverMu sync.Mutex
	active  int
	coverAt time.Time
	covered time.Duration

	mu       sync.Mutex
	steps    []stepSpan
	syncs    []syncSpan
	polls    []span
	handlers []handlerSpan
	requests []requestSpan
	leafReqs []leafRequestSpan
	adds     []float64 // µs
	removes  []float64 // µs
	lags     []float64 // ms
	// Closed-loop iterations (driver loop, federated cycle) and the part
	// of each that a layer span covers.
	iterWall, iterCovered time.Duration
	// At the start of the measured phase, for deltas.
	readsAtMeasure readTotals
}

// readCounters fold every per-station ReadInto call.
type readCounters struct {
	srcNs, srcSamples             atomic.Int64 // replay sources, every station
	stagedSrcNs, stagedSrcSamples atomic.Int64 // replay sources under pipeline stages
	pipeNs, pipeSamples           atomic.Int64 // pipeline.Chain outputs
	fleetCalls, fleetNs           atomic.Int64 // outermost wrapper: what the fleet called
	fleetSamples                  atomic.Int64
}

type readTotals struct {
	srcNs, srcSamples, stagedSrcNs, stagedSrcSamples int64
	pipeNs, pipeSamples, fleetCalls, fleetNs         int64
	fleetSamples                                     int64
}

func (c *readCounters) load() readTotals {
	return readTotals{
		srcNs: c.srcNs.Load(), srcSamples: c.srcSamples.Load(),
		stagedSrcNs: c.stagedSrcNs.Load(), stagedSrcSamples: c.stagedSrcSamples.Load(),
		pipeNs: c.pipeNs.Load(), pipeSamples: c.pipeSamples.Load(),
		fleetCalls: c.fleetCalls.Load(), fleetNs: c.fleetNs.Load(),
		fleetSamples: c.fleetSamples.Load(),
	}
}

type span struct {
	start, end time.Duration // since tracer.t0
	measured   bool
}

func (s span) dur() time.Duration { return s.end - s.start }

// stepSpan is one StepAll with the aggregate of its child ReadInto calls.
type stepSpan struct {
	span
	calls, samples int64
	busy, union    time.Duration
}

type syncSpan struct {
	span
	appended int
	missed   uint64
}

// handlerSpan is one request as the serving daemon's middleware saw it.
type handlerSpan struct {
	span
	server, route string
	id            int64 // the generator's request id, 0 for the head's own calls
	bytes         int64
	status        int
}

// requestSpan is one generator request, from send to the end of the body.
type requestSpan struct {
	id         int64
	route      string
	send, done time.Duration
	measured   bool
}

// leafRequestSpan is one request the head made to a leaf.
type leafRequestSpan struct {
	span
	poll   bool // /api/fleet, not a proxied drill-down
	status int  // 0 on a transport error
	bytes  int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) since(at time.Time) time.Duration { return at.Sub(t.t0) }

// startMeasuring marks the start of the measured phase: spans recorded
// from now on carry measured=true and read counters are taken as deltas.
func (t *tracer) startMeasuring() {
	t.mu.Lock()
	t.readsAtMeasure = t.reads.load()
	t.mu.Unlock()
	t.measuring.Store(true)
}

func (t *tracer) span(began, ended time.Time) span {
	return span{start: t.since(began), end: t.since(ended), measured: t.measuring.Load()}
}

// enter and exit bracket an outermost ReadInto for the StepAll cover.
// Both read the clock under the lock, so the union's edges follow the
// order the lock serialises them in and no overlap is counted twice.
func (t *tracer) enter() bool {
	if !t.coverOn.Load() {
		return false
	}
	t.coverMu.Lock()
	if t.active == 0 {
		t.coverAt = time.Now()
	}
	t.active++
	t.coverMu.Unlock()
	return true
}

func (t *tracer) exit() {
	t.coverMu.Lock()
	t.active--
	if t.active == 0 {
		t.covered += time.Since(t.coverAt)
	}
	t.coverMu.Unlock()
}

// stepAll runs step (one Manager.StepAll) as a span, folding the
// ReadInto calls it makes into the span's aggregate. StepAll calls are
// serialised by the benchmark's drivers, so the fleet-wide counters'
// deltas belong to this span alone.
func (t *tracer) stepAll(step func()) time.Duration {
	before := t.reads.load()
	t.coverMu.Lock()
	coveredBefore := t.covered
	t.coverMu.Unlock()
	t.coverOn.Store(true)
	began := time.Now()
	step()
	ended := time.Now()
	t.coverOn.Store(false)
	after := t.reads.load()
	t.coverMu.Lock()
	union := t.covered - coveredBefore
	t.coverMu.Unlock()
	s := stepSpan{
		span:    t.span(began, ended),
		calls:   after.fleetCalls - before.fleetCalls,
		samples: after.fleetSamples - before.fleetSamples,
		busy:    time.Duration(after.fleetNs - before.fleetNs),
		union:   union,
	}
	t.mu.Lock()
	t.steps = append(t.steps, s)
	t.mu.Unlock()
	return ended.Sub(began)
}

// syncHistory runs sync (one Manager.SyncHistory) as a span.
func (t *tracer) syncHistory(sync func() (int, uint64)) time.Duration {
	began := time.Now()
	appended, missed := sync()
	ended := time.Now()
	t.mu.Lock()
	t.syncs = append(t.syncs, syncSpan{span: t.span(began, ended), appended: appended, missed: missed})
	t.mu.Unlock()
	return ended.Sub(began)
}

// pollOnce runs poll (one Head.PollOnce) as a span.
func (t *tracer) pollOnce(poll func()) time.Duration {
	began := time.Now()
	poll()
	ended := time.Now()
	t.mu.Lock()
	t.polls = append(t.polls, t.span(began, ended))
	t.mu.Unlock()
	return ended.Sub(began)
}

// summary writes how many spans of each kind the traced run kept, with
// the ReadInto aggregates folded into its StepAll spans.
func (t *tracer) summary(w io.Writer) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var calls, samples int64
	var busy, union time.Duration
	for _, s := range t.steps {
		calls += s.calls
		samples += s.samples
		busy += s.busy
		union += s.union
	}
	fmt.Fprintf(w, "# spans: %d StepAll (child ReadInto: %d calls, %d samples, %.3fs busy, %.3fs union), "+
		"%d SyncHistory, %d PollOnce, %d handler, %d request, %d head-to-leaf request\n",
		len(t.steps), calls, samples, busy.Seconds(), union.Seconds(),
		len(t.syncs), len(t.polls), len(t.handlers), len(t.requests), len(t.leafReqs))
}

func (t *tracer) churn(add bool, d time.Duration) {
	t.mu.Lock()
	if add {
		t.adds = append(t.adds, float64(d)/float64(time.Microsecond))
	} else {
		t.removes = append(t.removes, float64(d)/float64(time.Microsecond))
	}
	t.mu.Unlock()
}

func (t *tracer) lag(ms []float64) {
	t.mu.Lock()
	t.lags = append(t.lags, ms...)
	t.mu.Unlock()
}

// iteration records one closed-loop iteration and the part of its wall
// time that layer spans covered.
func (t *tracer) iteration(wall, covered time.Duration) {
	if !t.measuring.Load() {
		return
	}
	t.mu.Lock()
	t.iterWall += wall
	t.iterCovered += covered
	t.mu.Unlock()
}

func (t *tracer) request(id int64, route string, send, done time.Time) {
	r := requestSpan{id: id, route: route, send: t.since(send), done: t.since(done),
		measured: t.measuring.Load()}
	t.mu.Lock()
	t.requests = append(t.requests, r)
	t.mu.Unlock()
}

// Layers a timed source can stand for.
const (
	layerSource   = iota // the replay source itself
	layerPipeline        // a pipeline.Chain output
)

// timedSource times ReadInto on the source it wraps. The outermost
// wrapper of a station also feeds the StepAll cover and the fleet-side
// call counters.
type timedSource struct {
	src       source.Source
	tr        *tracer
	layer     int
	staged    bool // a layerSource wrapper that sits under pipeline stages
	outermost bool
}

// wrapTimed wraps src for tracing. The wrapper implements
// source.Overheader and source.Restarter exactly when src does, so the
// fleet's overhead accounting and its watchdog restart/park path see the
// same program traced as untraced.
func wrapTimed(src source.Source, tr *tracer, layer int, staged, outermost bool) source.Source {
	ts := &timedSource{src: src, tr: tr, layer: layer, staged: staged, outermost: outermost}
	o, isO := src.(source.Overheader)
	r, isR := src.(source.Restarter)
	switch {
	case isO && isR:
		return &timedOR{ts, o, r}
	case isO:
		return &timedO{ts, o}
	case isR:
		return &timedR{ts, r}
	}
	return ts
}

type timedO struct {
	*timedSource
	o source.Overheader
}

type timedR struct {
	*timedSource
	r source.Restarter
}

type timedOR struct {
	*timedSource
	o source.Overheader
	r source.Restarter
}

func (t *timedO) Overhead() time.Duration  { return t.o.Overhead() }
func (t *timedR) Restart() error           { return t.r.Restart() }
func (t *timedOR) Overhead() time.Duration { return t.o.Overhead() }
func (t *timedOR) Restart() error          { return t.r.Restart() }

func (s *timedSource) Meta() source.Meta  { return s.src.Meta() }
func (s *timedSource) Now() time.Duration { return s.src.Now() }
func (s *timedSource) Joules() float64    { return s.src.Joules() }
func (s *timedSource) Resyncs() int       { return s.src.Resyncs() }
func (s *timedSource) Close()             { s.src.Close() }

func (s *timedSource) ReadInto(d time.Duration, b *source.Batch) error {
	covering := s.outermost && s.tr.enter()
	began := time.Now()
	err := s.src.ReadInto(d, b)
	ended := time.Now()
	if covering {
		s.tr.exit()
	}
	ns, n := int64(ended.Sub(began)), int64(b.Len())
	c := &s.tr.reads
	switch s.layer {
	case layerSource:
		c.srcNs.Add(ns)
		c.srcSamples.Add(n)
		if s.staged {
			c.stagedSrcNs.Add(ns)
			c.stagedSrcSamples.Add(n)
		}
	case layerPipeline:
		c.pipeNs.Add(ns)
		c.pipeSamples.Add(n)
	}
	if s.outermost {
		c.fleetCalls.Add(1)
		c.fleetNs.Add(ns)
		c.fleetSamples.Add(n)
	}
	return err
}

// requestIDHeader carries the generator's request id to the serving
// daemon's middleware, which links the handler span to the client span.
const requestIDHeader = "X-Perfbench-Request"

// routeOf names the routes the benchmark reports on.
func routeOf(path string) string {
	switch {
	case path == "/metrics":
		return "metrics"
	case path == "/api/fleet":
		return "fleet"
	case strings.HasPrefix(path, "/api/device/") && strings.HasSuffix(path, "/energy"):
		return "energy"
	}
	return "other"
}

// middleware times every request h serves as a handler span of server.
func (t *tracer) middleware(server string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cw := &countingWriter{ResponseWriter: w, status: http.StatusOK}
		began := time.Now()
		h.ServeHTTP(cw, r)
		ended := time.Now()
		id, _ := strconv.ParseInt(r.Header.Get(requestIDHeader), 10, 64)
		s := handlerSpan{span: t.span(began, ended), server: server, route: routeOf(r.URL.Path),
			id: id, bytes: cw.n, status: cw.status}
		t.mu.Lock()
		t.handlers = append(t.handlers, s)
		t.mu.Unlock()
	})
}

type countingWriter struct {
	http.ResponseWriter
	n      int64
	status int
}

func (w *countingWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

// timingTransport times each request the head makes to a leaf, from the
// round trip's start until the caller closes the body.
type timingTransport struct {
	base http.RoundTripper
	tr   *tracer
}

func (t *timingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	began := time.Now()
	poll := routeOf(req.URL.Path) == "fleet"
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		t.tr.leafRequest(leafRequestSpan{span: t.tr.span(began, time.Now()), poll: poll})
		return nil, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, tr: t.tr, began: began, poll: poll,
		status: resp.StatusCode}
	return resp, nil
}

func (t *tracer) leafRequest(s leafRequestSpan) {
	t.mu.Lock()
	t.leafReqs = append(t.leafReqs, s)
	t.mu.Unlock()
}

type timedBody struct {
	io.ReadCloser
	tr     *tracer
	began  time.Time
	poll   bool
	status int
	n      int64
	once   sync.Once
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() {
		b.tr.leafRequest(leafRequestSpan{span: b.tr.span(b.began, time.Now()), poll: b.poll,
			status: b.status, bytes: b.n})
	})
	return err
}
