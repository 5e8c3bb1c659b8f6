// The leaf client: one leaf daemon's HTTP face as the head sees it. A
// leaf is any psd serving the standard read-only API — the head consumes
// /api/fleet (versioned JSON with an ETag) and proxies per-device
// drill-downs; leaves need no federation-specific code at all.

package federation

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"

	"repro/internal/export"
	"repro/internal/source"
)

// maxFleetBody bounds how many bytes of /api/fleet body the head will
// read from one leaf — a corrupted or hostile leaf must not balloon the
// head's memory. 64 MiB is thousands of times a 10k-station body.
const maxFleetBody = 64 << 20

// leafClient fetches one leaf's fleet view over its existing HTTP API.
type leafClient struct {
	name string
	url  string // base URL, no trailing slash
	http *http.Client
}

// fetchFleet GETs the leaf's /api/fleet. etag, when non-empty, rides as
// If-None-Match: a quiet leaf answers 304 with no body and fetchFleet
// returns notModified with a nil view. A body decodeFleet refuses is an
// error — leaf/head version skew or a malformed leaf fails loudly at the
// poll rather than misrendering stations.
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
	v, err := decodeFleet(io.LimitReader(resp.Body, maxFleetBody))
	if err != nil {
		return nil, "", false, fmt.Errorf("leaf %s: %w", c.name, err)
	}
	return v, resp.Header.Get("ETag"), false, nil
}

// decodeFleet decodes one /api/fleet body: the head's trust boundary. A
// body is refused when its schema differs from the head's own
// export.FleetSchemaVersion, or when any station's shape is one no fleet
// produces — a negative pair count, more pairs than source.MaxChannels
// (the widest station any backend carries; the cap also bounds the label
// blocks a hostile count could make the head allocate), or more channel
// labels or per-pair readings than pairs. A refused body fails the poll like a
// dead leaf would, instead of reaching the renderer, which indexes one
// label block per pair reading.
func decodeFleet(r io.Reader) (*export.FleetJSON, error) {
	var v export.FleetJSON
	if err := json.NewDecoder(r).Decode(&v); err != nil {
		return nil, fmt.Errorf("/api/fleet: %w", err)
	}
	if v.Schema != export.FleetSchemaVersion {
		return nil, fmt.Errorf("schema skew: leaf serves %d, head wants %d",
			v.Schema, export.FleetSchemaVersion)
	}
	for i := range v.Devices {
		d := &v.Devices[i]
		if d.Pairs < 0 || d.Pairs > source.MaxChannels ||
			len(d.PairWatts) > d.Pairs || len(d.Channels) > d.Pairs {
			return nil, fmt.Errorf("/api/fleet: station %q: malformed shape: %d pairs, %d readings, %d channels",
				d.Name, d.Pairs, len(d.PairWatts), len(d.Channels))
		}
	}
	return &v, nil
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
