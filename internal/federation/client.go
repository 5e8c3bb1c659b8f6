// The leaf client: one leaf daemon's HTTP face as the head sees it. A
// leaf is any psd serving the standard read-only API — the head consumes
// /api/fleet (versioned JSON with an ETag) and proxies per-device
// drill-downs; leaves need no federation-specific code at all.

package federation

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strings"

	"repro/internal/export"
)

// maxFleetBody bounds how many bytes of /api/fleet body the head will
// read from one leaf — a corrupted or hostile leaf must not balloon the
// head's memory. 64 MiB is thousands of times a 10k-station body.
const maxFleetBody = 64 << 20

// leafClient fetches one leaf's fleet view over its existing HTTP API.
// Polls of one leaf are single-flight (leafState.inflight), so the
// client's body buffer and decoder are never used concurrently.
type leafClient struct {
	name string
	url  string // base URL, no trailing slash
	http *http.Client

	body []byte       // read buffer, reused across polls
	dec  fleetDecoder // interns strings across polls
}

// fetchFleet GETs the leaf's /api/fleet. etag, when non-empty, rides as
// If-None-Match: a quiet leaf answers 304 with no body and fetchFleet
// returns notModified with a nil view. A body over maxFleetBody, or one
// decode refuses, is an error — leaf/head version skew or a malformed
// leaf fails loudly at the poll rather than misrendering stations.
func (c *leafClient) fetchFleet(ctx context.Context, etag string) (view *export.FleetJSON, newETag string, notModified bool, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.url+"/api/fleet", nil)
	if err != nil {
		return nil, "", false, err
	}
	if etag != "" {
		req.Header.Set("If-None-Match", etag)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, "", false, err
	}
	defer func() {
		// Drain so the transport can reuse the connection.
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
	}()
	switch resp.StatusCode {
	case http.StatusNotModified:
		return nil, etag, true, nil
	case http.StatusOK:
	default:
		return nil, "", false, fmt.Errorf("leaf %s: /api/fleet: status %d", c.name, resp.StatusCode)
	}
	body, err := readCapped(c.body[:0], resp.Body, resp.ContentLength, maxFleetBody)
	if err != nil {
		c.body = nil
		return nil, "", false, fmt.Errorf("leaf %s: /api/fleet: %w", c.name, err)
	}
	// Keep the buffer for the next poll unless one oversized body grew
	// it far past what this leaf serves now.
	if c.body = body; cap(body) > 1<<20 && cap(body) > 4*len(body) {
		c.body = nil
	}
	v, err := c.dec.decode(body)
	if err != nil {
		return nil, "", false, fmt.Errorf("leaf %s: %w", c.name, err)
	}
	return v, resp.Header.Get("ETag"), false, nil
}

// readCapped reads r to EOF into buf, sized up front from a known
// length hint (-1 for none). A body longer than limit bytes is an error,
// found without reading more than one byte past the limit.
func readCapped(buf []byte, r io.Reader, hint, limit int64) ([]byte, error) {
	if hint > limit {
		return buf, fmt.Errorf("body of %d bytes exceeds the %d-byte cap", hint, limit)
	}
	if hint >= 0 {
		// One spare byte lets the read that meets EOF skip a regrowth.
		buf = slices.Grow(buf, int(hint)+1)
	}
	for {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, 512)
		}
		end := min(cap(buf), int(limit)+1)
		n, err := r.Read(buf[len(buf):end])
		buf = buf[:len(buf)+n]
		if int64(len(buf)) > limit {
			return buf, fmt.Errorf("body exceeds the %d-byte cap", limit)
		}
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// trimURL normalises a leaf base URL: a bare host:port gains the http
// scheme, trailing slashes drop.
func trimURL(u string) string {
	u = strings.TrimRight(u, "/")
	if !strings.Contains(u, "://") {
		u = "http://" + u
	}
	return u
}
