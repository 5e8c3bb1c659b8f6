// Leaf-facing surface of the exporter: the versioned /api/fleet wire
// format a federation head consumes, and the exposition helpers the head
// composes its own self families with. The head renders each leaf's
// stations through the same Renderer the exporter's shards use (see
// segment.go), named for the leaf so every label block carries a leaf
// label and duplicate station names across leaves stay distinct series.

package export

import (
	"strconv"

	"repro/internal/fleet"
	"repro/internal/obs"
)

// FleetSchemaVersion is the wire-format version of the /api/fleet JSON
// body. A federation head refuses a leaf whose schema differs — leaf and
// head builds skewing apart must fail loudly at the poll, not silently
// misrender stations. Bump it whenever a field the head consumes
// changes meaning or shape.
const FleetSchemaVersion = 1

// FleetJSON is the /api/fleet response body — the leaf side of the
// federation wire format. Schema pins the format version, Generation is
// the fleet's block-boundary fingerprint (fleet.Manager.Gen; it also
// backs the endpoint's ETag, so a head can skip both the body transfer
// and its own re-render while a leaf is quiet), and Devices carries the
// per-station statuses with everything a head consumes: health, backend,
// native rate, and the lifecycle state.
type FleetJSON struct {
	Schema     int            `json:"schema"`
	Generation uint64         `json:"generation"`
	Devices    []fleet.Status `json:"devices"`
}

// FleetETag renders the /api/fleet ETag for a generation fingerprint.
// Shared by the serving side and any client building If-None-Match.
func FleetETag(gen uint64) string {
	return `"ps-` + strconv.FormatUint(gen, 16) + `"`
}

// Header renders one family's HELP/TYPE comment block — the exported
// form of the exposition skeleton helper, for consumers (the federation
// head) composing their own families around the fleet ones.
func Header(name, help, typ string) string { return header(name, help, typ) }

// Escape escapes a label value per the exposition text format.
func Escape(s string) string { return escapeLabel(s) }

// AppendSample renders one exposition line — name, pre-rendered label
// block, value, newline — appended into buf, with the integer fast path
// of the exporter's own scrape renderer.
func AppendSample(buf []byte, name, labels string, v float64) []byte {
	return appendSample(buf, name, labels, v)
}

// HistSeries is a pre-rendered exposition histogram series: the family's
// _bucket/_sum/_count names joined once, and a {le="..."} block per
// bucket with any extra labels folded in. Build one per (family, label
// set) at construction time; Append then renders the whole series from
// cached strings and numbers.
type HistSeries struct {
	hs                             *histSeries
	bucketName, sumName, countName string
}

// NewHistSeries pre-renders the series of family with the extra labels
// given as a rendered `k="v"` fragment ("" for none).
func NewHistSeries(family, extra string) *HistSeries {
	return &HistSeries{
		hs:         newHistSeries(extra),
		bucketName: family + "_bucket",
		sumName:    family + "_sum",
		countName:  family + "_count",
	}
}

// Append renders the histogram snapshot in exposition form: cumulative
// _bucket lines, then _sum and _count.
func (h *HistSeries) Append(buf []byte, snap *obs.HistSnapshot) []byte {
	return appendHist(buf, h.bucketName, h.sumName, h.countName, h.hs, snap)
}
