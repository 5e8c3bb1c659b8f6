package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"repro/internal/export"
	"repro/internal/federation"
	"repro/internal/fleet"
	"repro/internal/pipeline"
	"repro/internal/source"
)

const (
	headInterval = time.Second // psd -federate-interval
	fixtureSpan  = 2 * time.Second
)

// stationSpec is one station as the benchmark builds it: a replayed base
// kind with pipeline stages applied live, named by the kindspec psd's
// -fleet flag would give it.
type stationSpec struct {
	name     string
	kindspec string
	base     string
	stages   []pipeline.Stage
	off      int  // replay start offset into the base kind's fixture
	faulted  bool // carries a fault stage: excluded from the energy check
}

// leafPlan is one leaf daemon: psd's fleet flags plus its stations.
// Stepped fleets run ahead of the wall clock, so their drivers sync
// history by virtual time: federated once per virtual second, psd's
// -history-sync default, ingest-20k every stepSync.
type leafPlan struct {
	name     string
	cfg      fleet.Config
	stations []stationSpec
}

// leaf is one running leaf daemon.
type leaf struct {
	plan leafPlan
	mgr  *fleet.Manager
	url  string
	srv  *http.Server
	done chan struct{} // Serve returned
}

// deployment is everything one setup starts: the leaves, the head and
// their listeners.
type deployment struct {
	tr       *tracer
	fixtures map[string]*fixture
	leaves   []*leaf
	head     *federation.Head
	headURL  string
	headSrv  *http.Server
	headDone chan struct{}
	headTr   *http.Transport
}

// buildSource builds a station's source: the replay, wrapped for timing
// when traced, under its pipeline stages.
func buildSource(st stationSpec, fx *fixture, tr *tracer) source.Source {
	staged := len(st.stages) > 0
	var src source.Source = newReplay(fx, st.off)
	if tr != nil {
		src = wrapTimed(src, tr, layerSource, staged, !staged)
	}
	src = pipeline.Chain(src, st.stages...)
	if tr != nil && staged {
		src = wrapTimed(src, tr, layerPipeline, false, true)
	}
	return src
}

// setup records the fixtures and starts the deployment of p: it builds
// every leaf's fleet, warms it up and serves it on a loopback listener,
// then, when p has a head, builds it, runs its first poll round and
// serves it — the wiring of psd's setup/run and setupHead/runHead.
func setup(p *plan, seed uint64, tr *tracer) (*deployment, error) {
	fxs, err := recordFixtures(seed, fixtureSpan)
	if err != nil {
		return nil, err
	}
	d := &deployment{tr: tr, fixtures: fxs}
	ok := false
	defer func() {
		if !ok {
			d.teardown()
		}
	}()
	for _, lp := range p.leaves {
		l, err := d.startLeaf(lp)
		if err != nil {
			return nil, err
		}
		d.leaves = append(d.leaves, l)
	}
	urls := d.leafURLs()
	if p.head {
		if err := d.startHead(p); err != nil {
			return nil, err
		}
		urls = append(urls, d.headURL)
	}
	// Fill the exporters' label caches and segment caches the way a first
	// scrape does, so the measured phase starts warm.
	for _, u := range urls {
		if err := warmGet(u + "/metrics"); err != nil {
			return nil, err
		}
	}
	ok = true
	return d, nil
}

func (d *deployment) startLeaf(lp leafPlan) (*leaf, error) {
	mgr := fleet.NewManager(lp.cfg)
	l := &leaf{plan: lp, mgr: mgr}
	for _, st := range lp.stations {
		src := buildSource(st, d.fixtures[st.base], d.tr)
		if _, err := mgr.Add(st.name, st.kindspec, src); err != nil {
			mgr.Close()
			return nil, err
		}
	}
	d.stepAll(mgr, warmup)
	// Drain the warm-up into history now: a ring smaller than the warm-up
	// would otherwise wrap before the first sync.
	d.syncHistory(mgr)
	var h http.Handler = export.New(mgr).Handler()
	if d.tr != nil {
		h = d.tr.middleware(lp.name, h)
	}
	url, srv, done, err := serve(h)
	if err != nil {
		mgr.Close()
		return nil, err
	}
	l.url, l.srv, l.done = url, srv, done
	return l, nil
}

// startHead builds the head over every leaf, runs its first poll round
// and serves it. The workload's driver polls from then on.
func (d *deployment) startHead(p *plan) error {
	leaves := make([]federation.Leaf, len(d.leaves))
	for i, l := range d.leaves {
		leaves[i] = federation.Leaf{Name: l.plan.name, URL: l.url}
	}
	d.headTr = &http.Transport{MaxIdleConnsPerHost: 4, IdleConnTimeout: time.Minute}
	var rt http.RoundTripper = d.headTr
	if d.tr != nil {
		rt = &timingTransport{base: d.headTr, tr: d.tr}
	}
	head, err := federation.New(federation.Config{
		Leaves:   leaves,
		Interval: headInterval,
		Workers:  p.headWorkers,
		Client:   &http.Client{Transport: rt},
	})
	if err != nil {
		return err
	}
	d.head = head
	d.pollOnce()
	var h http.Handler = head.Handler()
	if d.tr != nil {
		h = d.tr.middleware("head", h)
	}
	url, srv, done, err := serve(h)
	if err != nil {
		return err
	}
	d.headURL, d.headSrv, d.headDone = url, srv, done
	return nil
}

// serve starts h on a fresh 127.0.0.1 listener with psd's server limits.
func serve(h http.Handler) (string, *http.Server, chan struct{}, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, nil, err
	}
	srv := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln) // returns ErrServerClosed at teardown
	}()
	return "http://" + ln.Addr().String(), srv, done, nil
}

// stepAll, syncHistory and pollOnce call into the daemon, as spans when
// traced. Each returns the wall time the call took.
func (d *deployment) stepAll(m *fleet.Manager, dt time.Duration) time.Duration {
	if d.tr != nil {
		return d.tr.stepAll(func() { m.StepAll(dt) })
	}
	began := time.Now()
	m.StepAll(dt)
	return time.Since(began)
}

func (d *deployment) syncHistory(m *fleet.Manager) time.Duration {
	if d.tr != nil {
		return d.tr.syncHistory(m.SyncHistory)
	}
	began := time.Now()
	m.SyncHistory()
	return time.Since(began)
}

func (d *deployment) pollOnce() time.Duration {
	poll := func() { d.head.PollOnce(context.Background()) }
	if d.tr != nil {
		return d.tr.pollOnce(poll)
	}
	began := time.Now()
	poll()
	return time.Since(began)
}

func (d *deployment) leafURLs() []string {
	urls := make([]string, len(d.leaves))
	for i, l := range d.leaves {
		urls[i] = l.url
	}
	return urls
}

// teardown stops every listener and fleet the deployment started and
// waits for each to end.
func (d *deployment) teardown() {
	for _, l := range d.leaves {
		l.mgr.Stop()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if d.headSrv != nil {
		_ = d.headSrv.Shutdown(ctx)
		<-d.headDone
	}
	for _, l := range d.leaves {
		if l.srv != nil {
			_ = l.srv.Shutdown(ctx)
			<-l.done
		}
	}
	for _, l := range d.leaves {
		l.mgr.Close()
	}
	if d.headTr != nil {
		d.headTr.CloseIdleConnections()
	}
}

// warmGet fetches url once on a throwaway connection.
func warmGet(url string) error {
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	resp, err := (&http.Client{Transport: tr, Timeout: 30 * time.Second}).Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return nil
}
