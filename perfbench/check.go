package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"time"
	"unsafe"
)

// churnPrefix names the stations the churn loop adds and removes. They
// are excluded from every per-station check: their counters legitimately
// restart when a name is reused, and their clocks start at zero.
const churnPrefix = "churn-"

// Body kinds the checker verifies.
const (
	jobLeafMetrics = iota
	jobHeadMetrics
)

// checkJob is one response body handed from a request goroutine to the
// checker, so verifying a large body never delays the open-loop schedule.
type checkJob struct {
	kind     int
	worker   int    // request goroutine, for per-sequence counter checks
	leaf     string // the leaf that served a leaf body
	body     *bytes.Buffer
	recv     time.Time
	measured bool
}

// selfCounters are the exporter's own cache counters read from one body.
type selfCounters struct {
	hits, misses, renders float64
	ok                    bool
}

// checker verifies every body it is handed:
//
//   - every exposition line parses;
//   - per station and per request goroutine, samples_total and
//     joules_total never go backwards (each goroutine's requests are
//     sequential, so its bodies are rendered in order);
//   - a head body carries every expected station under its leaf label.
//
// From leaf bodies it also takes the data ages (via ages) and the
// exporter's cache counters.
type checker struct {
	jobs chan checkJob
	pool sync.Pool
	done chan struct{}

	// expected lists each leaf's stations that must appear in its bodies.
	expected map[string][]string
	// ages appends the data ages, in ms, of the clocks[i] with i%every ==
	// phase, read at recv; nil skips the age.
	ages func(dst []float64, clocks []float64, recv time.Time, every, phase int) []float64

	mu        sync.Mutex
	failures  int64
	firstErr  error
	ageMs     []float64
	bodies    int64
	selfFirst map[string]selfCounters
	selfLast  map[string]selfCounters
	selfN     map[string]int64

	// Checker-goroutine state.
	last   map[[2]string]map[string]*[2]float64 // (leaf, worker) → station → samples, joules
	index  map[string]map[string]int
	clocks []float64 // the body being checked's station clocks, virtual seconds
}

func newChecker(expected map[string][]string,
	ages func([]float64, []float64, time.Time, int, int) []float64) *checker {
	c := &checker{
		// Sized for a few seconds of the busiest body mix, so a request
		// goroutine never waits on the checker in steady state.
		jobs:      make(chan checkJob, 256),
		done:      make(chan struct{}),
		expected:  expected,
		ages:      ages,
		selfFirst: map[string]selfCounters{},
		selfLast:  map[string]selfCounters{},
		selfN:     map[string]int64{},
		last:      map[[2]string]map[string]*[2]float64{},
		index:     map[string]map[string]int{},
	}
	for leaf, names := range expected {
		idx := make(map[string]int, len(names))
		for i, n := range names {
			idx[n] = i
		}
		c.index[leaf] = idx
	}
	c.pool.New = func() any { return new(bytes.Buffer) }
	go c.loop()
	return c
}

// buffer returns an empty pooled body buffer.
func (c *checker) buffer() *bytes.Buffer {
	b := c.pool.Get().(*bytes.Buffer)
	b.Reset()
	return b
}

func (c *checker) submit(j checkJob) { c.jobs <- j }

// close waits for every submitted body to be checked.
func (c *checker) close() {
	close(c.jobs)
	<-c.done
}

func (c *checker) fail(err error) {
	c.mu.Lock()
	c.failures++
	if c.firstErr == nil {
		c.firstErr = err
	}
	c.mu.Unlock()
}

func (c *checker) loop() {
	defer close(c.done)
	for j := range c.jobs {
		var err error
		switch j.kind {
		case jobLeafMetrics:
			err = c.leafMetrics(j)
		case jobHeadMetrics:
			err = c.headMetrics(j.body.Bytes())
		}
		if err != nil {
			c.fail(err)
		}
		c.pool.Put(j.body)
	}
}

// leafMetrics checks one leaf /metrics body.
func (c *checker) leafMetrics(j checkJob) error {
	key := [2]string{j.leaf, strconv.Itoa(j.worker)}
	last := c.last[key]
	if last == nil {
		last = map[string]*[2]float64{}
		c.last[key] = last
	}
	c.clocks = c.clocks[:0]
	var self selfCounters
	var bad error
	err := eachSample(j.body.Bytes(), func(name, labels []byte, v float64) {
		switch string(name) {
		case "powersensor_samples_total", "powersensor_joules_total", "powersensor_device_virtual_seconds":
			dev, ok := deviceOf(labels)
			if !ok || strings.HasPrefix(dev, churnPrefix) {
				return
			}
			if string(name) == "powersensor_device_virtual_seconds" {
				c.clocks = append(c.clocks, v)
				return
			}
			col := 0
			if string(name) == "powersensor_joules_total" {
				col = 1
			}
			p := last[dev]
			if p == nil {
				p = &[2]float64{math.Inf(-1), math.Inf(-1)}
				last[strings.Clone(dev)] = p
			}
			if v < p[col] && bad == nil {
				bad = fmt.Errorf("leaf %s: %s{device=%q} went backwards: %g after %g",
					j.leaf, name, dev, v, p[col])
			}
			p[col] = v
		case "powersensor_self_scrape_cache_hits_total":
			self.hits, self.ok = v, true
		case "powersensor_self_scrape_cache_misses_total":
			self.misses = v
		case "powersensor_self_shard_renders_total":
			self.renders = v
		}
	})
	if err != nil {
		return fmt.Errorf("leaf %s /metrics: %w", j.leaf, err)
	}
	if bad != nil {
		return bad
	}
	if len(c.clocks) == 0 || !self.ok {
		return fmt.Errorf("leaf %s /metrics: no station clocks or self counters", j.leaf)
	}
	if !j.measured {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ages != nil {
		// A rotating eighth of the stations per body keeps the sample
		// count — and the benchmark's own heap — small on large fleets.
		c.ageMs = c.ages(c.ageMs, c.clocks, j.recv, ageEvery, int(c.bodies%ageEvery))
	}
	c.bodies++
	if _, ok := c.selfFirst[j.leaf]; !ok {
		c.selfFirst[j.leaf] = self
	}
	c.selfLast[j.leaf] = self
	c.selfN[j.leaf]++
	return nil
}

// headMetrics checks one head /metrics body: it parses, and every
// expected station of every leaf appears under its leaf label.
func (c *checker) headMetrics(body []byte) error {
	seen := map[string][]bool{}
	for leaf, names := range c.expected {
		seen[leaf] = make([]bool, len(names))
	}
	err := eachSample(body, func(name, labels []byte, _ float64) {
		if string(name) != "powersensor_source_info" {
			return
		}
		leaf, ok1 := labelValue(labels, "leaf")
		dev, ok2 := labelValue(labels, "device")
		if !ok1 || !ok2 {
			return
		}
		if i, ok := c.index[leaf][dev]; ok {
			seen[leaf][i] = true
		}
	})
	if err != nil {
		return fmt.Errorf("head /metrics: %w", err)
	}
	for leaf, s := range seen {
		for i, ok := range s {
			if !ok {
				return fmt.Errorf("head /metrics: station %s missing under leaf=%q", c.expected[leaf][i], leaf)
			}
		}
	}
	return nil
}

// results returns the checker's totals once closed.
func (c *checker) results() (failures int64, firstErr error, ages []float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.failures, c.firstErr, c.ageMs
}

// cacheStats returns, for leaf, the exporter's cache hit ratio and shard
// renders per scrape over the measured scrapes, from the counters the
// bodies themselves carry.
func (c *checker) cacheStats(leaf string) (hitRatio, rendersPerScrape float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	first, last, n := c.selfFirst[leaf], c.selfLast[leaf], c.selfN[leaf]
	if n < 2 {
		return 0, 0
	}
	hits, misses := last.hits-first.hits, last.misses-first.misses
	if hits+misses > 0 {
		hitRatio = hits / (hits + misses)
	}
	return hitRatio, (last.renders - first.renders) / float64(n-1)
}

var errBadLine = errors.New("malformed exposition line")

// eachSample parses a text exposition body, calling fn for every sample
// line, and fails on the first line that does not parse.
func eachSample(body []byte, fn func(name, labels []byte, v float64)) error {
	lineNo := 0
	for len(body) > 0 {
		lineNo++
		nl := bytes.IndexByte(body, '\n')
		if nl < 0 {
			return fmt.Errorf("line %d: %w: no trailing newline", lineNo, errBadLine)
		}
		line := body[:nl]
		body = body[nl+1:]
		if len(line) == 0 {
			continue
		}
		if line[0] == '#' {
			if !bytes.HasPrefix(line, []byte("# HELP ")) && !bytes.HasPrefix(line, []byte("# TYPE ")) {
				return fmt.Errorf("line %d: %w: %q", lineNo, errBadLine, line)
			}
			continue
		}
		name, labels, v, ok := parseSample(line)
		if !ok {
			return fmt.Errorf("line %d: %w: %q", lineNo, errBadLine, line)
		}
		fn(name, labels, v)
	}
	return nil
}

// parseSample parses `name[{labels}] value`.
func parseSample(line []byte) (name, labels []byte, v float64, ok bool) {
	i := 0
	for i < len(line) && isNameByte(line[i], i == 0) {
		i++
	}
	if i == 0 {
		return nil, nil, 0, false
	}
	name = line[:i]
	if i < len(line) && line[i] == '{' {
		end, ok := scanLabels(line, i)
		if !ok {
			return nil, nil, 0, false
		}
		labels = line[i:end]
		i = end
	}
	if i >= len(line) || line[i] != ' ' {
		return nil, nil, 0, false
	}
	v, err := strconv.ParseFloat(bytesString(line[i+1:]), 64)
	if err != nil {
		return nil, nil, 0, false
	}
	return name, labels, v, true
}

// bytesString views b as a string without copying; callers use the
// string only while b is unmodified.
func bytesString(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

func isNameByte(c byte, first bool) bool {
	switch {
	case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		return true
	case c >= '0' && c <= '9':
		return !first
	}
	return false
}

// scanLabels scans a `{k="v",...}` block starting at line[i] == '{' and
// returns the index just past its closing brace.
func scanLabels(line []byte, i int) (int, bool) {
	i++
	for {
		if i < len(line) && line[i] == '}' {
			return i + 1, true
		}
		k := i
		for i < len(line) && isNameByte(line[i], i == k) {
			i++
		}
		if i == k || i+1 >= len(line) || line[i] != '=' || line[i+1] != '"' {
			return 0, false
		}
		i += 2
		for i < len(line) && line[i] != '"' {
			if line[i] == '\\' {
				i++
			}
			i++
		}
		if i >= len(line) {
			return 0, false
		}
		i++ // closing quote
		if i < len(line) && line[i] == ',' {
			i++
		}
	}
}

// labelValue returns the value of label key in a rendered label block.
// Station names in the benchmark need no escaping, so values are taken
// verbatim.
func labelValue(labels []byte, key string) (string, bool) {
	pat := key + `="`
	for off := 0; ; {
		i := bytes.Index(labels[off:], []byte(pat))
		if i < 0 {
			return "", false
		}
		i += off
		if i == 1 || labels[i-1] == ',' {
			rest := labels[i+len(pat):]
			j := bytes.IndexByte(rest, '"')
			if j < 0 {
				return "", false
			}
			return string(rest[:j]), true
		}
		off = i + len(pat)
	}
}

// deviceOf returns the device of a `{device="X"}` block without copying.
func deviceOf(labels []byte) (string, bool) {
	const pre, post = `{device="`, `"}`
	if !bytes.HasPrefix(labels, []byte(pre)) || !bytes.HasSuffix(labels, []byte(post)) {
		return "", false
	}
	return bytesString(labels[len(pre) : len(labels)-len(post)]), true
}

// ageEvery is the share of each leaf body's stations whose data age is
// sampled: one in ageEvery, rotating from body to body.
const ageEvery = 8
