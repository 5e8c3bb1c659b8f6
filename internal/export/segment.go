// The segment renderer: one set of station statuses rendered into a
// family-major exposition segment. It is the one rendering mechanism
// behind both the exporter's per-shard cache (no prefix) and a
// federation head's per-leaf cache (a leaf label on every series).

package export

import (
	"fmt"
	"slices"

	"repro/internal/fleet"
)

// Segment is a staged copy of one rendered segment: the family-major
// bytes and the per-family offsets that slice them — family f's rows are
// Seg[Offs[f]:Offs[f+1]]. Callers copy segments out under the lock
// guarding the renderer (reusing Seg's backing array) and assemble
// bodies lock-free from the copies.
type Segment struct {
	Seg  []byte
	Offs [nDevFams + 1]int
}

// devLabels is the pre-rendered label set of one station, with the
// identity it was rendered from.
type devLabels struct {
	backend, kind string
	channels      []string // the renderer's own copy

	dev   string   // {device="X"}
	info  string   // {device="X",backend="B",kind="K"}
	pairs []string // {device="X",pair="0",channel="C"} per channel
}

// matches reports whether l was rendered from s's identity. The name is
// the cache key, so it already matches.
func (l *devLabels) matches(s *fleet.Status) bool {
	return l.backend == s.Backend && l.kind == s.Kind &&
		len(l.pairs) == s.Pairs && slices.Equal(l.channels, s.Channels)
}

// Renderer renders station statuses into a family-major exposition
// segment. It caches each station's rendered label blocks, so
// steady-state re-renders only append numbers into a reused buffer. Not
// safe for concurrent use: the exporter guards each shard's renderer with
// the shard's lock, a head each leaf's with the leaf's lock.
type Renderer struct {
	prefix   string // `leaf="X",`, or "" for no leaf label
	labels   map[string]*devLabels
	resolved []*devLabels
	seg      Segment
}

// NewRenderer returns a renderer labelling every series with leaf="name";
// an empty name renders no leaf label.
func NewRenderer(leaf string) *Renderer {
	r := &Renderer{labels: make(map[string]*devLabels)}
	if leaf != "" {
		r.prefix = `leaf="` + escapeLabel(leaf) + `",`
	}
	return r
}

// labelFor resolves the cached label blocks of one station. An entry is
// reused only while the station's name, backend, kind and channel list
// all match the ones it was rendered from, so a name retired and
// re-adopted as a different station re-renders its labels on first
// sight.
func (r *Renderer) labelFor(s *fleet.Status) *devLabels {
	if l, ok := r.labels[s.Name]; ok && l.matches(s) {
		return l
	}
	name := escapeLabel(s.Name)
	l := &devLabels{
		backend:  s.Backend,
		kind:     s.Kind,
		channels: slices.Clone(s.Channels),
		dev:      fmt.Sprintf(`{%sdevice="%s"}`, r.prefix, name),
		info: fmt.Sprintf(`{%sdevice="%s",backend="%s",kind="%s"}`,
			r.prefix, name, escapeLabel(s.Backend), escapeLabel(s.Kind)),
	}
	for m := 0; m < s.Pairs; m++ {
		channel := fmt.Sprintf("pair%d", m)
		if m < len(s.Channels) {
			channel = s.Channels[m]
		}
		l.pairs = append(l.pairs, fmt.Sprintf(`{%sdevice="%s",pair="%d",channel="%s"}`,
			r.prefix, name, m, escapeLabel(channel)))
	}
	r.labels[s.Name] = l
	return l
}

// Render renders devs, in the order given, into the renderer's segment,
// replacing the previous render. Every status must satisfy
// len(PairWatts) <= Pairs, as a fleet snapshot does by construction and a
// head checks at decode. Retired names leave the label cache lazily: the
// cache is dropped once it holds more than twice the live station count
// plus 16, so churn cannot grow it without bound.
func (r *Renderer) Render(devs []fleet.Status) {
	if len(r.labels) > 2*len(devs)+16 {
		clear(r.labels)
	}
	r.resolved = r.resolved[:0]
	for i := range devs {
		r.resolved = append(r.resolved, r.labelFor(&devs[i]))
	}
	seg := r.seg.Seg[:0]
	for f := 0; f < nDevFams; f++ {
		r.seg.Offs[f] = len(seg)
		for i := range devs {
			seg = appendDevFam(seg, f, &devs[i], r.resolved[i])
		}
	}
	r.seg.Offs[nDevFams] = len(seg)
	r.seg.Seg = seg
}

// CopySegment stages the current render into dst, reusing dst.Seg's
// backing array.
func (r *Renderer) CopySegment(dst *Segment) {
	dst.Seg = append(dst.Seg[:0], r.seg.Seg...)
	dst.Offs = r.seg.Offs
}

// AppendSegments appends the per-device families: each family's
// HELP/TYPE header, then that family's rows concatenated across the
// staged segments, keeping the body family-major as the text format
// requires. Within a family, rows group by segment in the order given.
func AppendSegments(buf []byte, segs []Segment) []byte {
	for f := 0; f < nDevFams; f++ {
		buf = append(buf, devFamHdrs[f]...)
		for i := range segs {
			buf = append(buf, segs[i].Seg[segs[i].Offs[f]:segs[i].Offs[f+1]]...)
		}
	}
	return buf
}
