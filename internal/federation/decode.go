// The head's /api/fleet decoder: a scanner for the one object shape a
// leaf serves (export.FleetJSON), with no reflection. It accepts only
// what encoding/json would accept — the full JSON grammar, including
// nesting up to encoding/json's depth limit — so a leaf body the
// scanner takes is always a valid JSON document; it just reads it in one
// pass straight into fleet statuses.

package federation

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"repro/internal/export"
	"repro/internal/fleet"
	"repro/internal/source"
)

// maxNesting is encoding/json's nesting limit: a document nested deeper
// is a syntax error there, so it is one here too.
const maxNesting = 10000

// internCap bounds a decoder's intern table. Past it the table is
// cleared and refills from the next bodies, so a leaf serving ever-new
// names cannot grow the head's memory through it.
const internCap = 1 << 16

// fleetDecoder scans /api/fleet bodies. The zero value is ready to use.
// A leaf's client keeps one across polls: its intern table hands the
// same immutable strings (names, kinds, channel labels, health words) to
// successive views, so a steady leaf's decode allocates no strings. A
// decoder is not safe for concurrent use.
type fleetDecoder struct {
	b     []byte
	i     int
	depth int
	err   error

	tmp      []byte            // unescaped string scratch
	folded   []byte            // foldKey scratch
	interned map[string]string // intern table
	devHint  int               // device count of the last body
}

// decode scans one /api/fleet body: the head's trust boundary. Keys are
// matched exactly; unknown members are validated and skipped, so a
// schema-1 leaf may add fields. Non-finite readings arrive as null and
// decode as NaN; a null in any other member leaves its zero value. Every
// status, channel list and reading list is freshly allocated — views
// handed out by Head.FleetView outlive the leaf lock, so nothing here
// reuses an earlier view's slices.
//
// A body is refused when it is not one JSON object of the FleetJSON
// shape (a member of the wrong type, an out-of-range integer, trailing
// data), when its schema differs from the head's own
// export.FleetSchemaVersion, or when any station's shape is one no fleet
// produces — a negative pair count, more pairs than source.MaxChannels
// (the widest station any backend carries; the cap also bounds the label
// blocks a hostile count could make the head allocate), or more channel
// labels or per-pair readings than pairs. A refused body fails the poll
// like a dead leaf would, instead of reaching the renderer, which
// indexes one label block per pair reading.
func (d *fleetDecoder) decode(body []byte) (*export.FleetJSON, error) {
	d.b, d.i, d.depth, d.err = body, 0, 0, nil
	v := &export.FleetJSON{}
	if d.open('{') {
		var discard export.FleetJSON
		for first := true; d.more('}', &first); {
			if key := d.key(); !d.fleetMember(key, v) && !d.fleetMember(d.foldKey(key), &discard) {
				d.skip()
			}
		}
	}
	d.ws()
	if d.err == nil && d.i < len(d.b) {
		d.fail("data after the top-level object")
	}
	d.b = nil
	if d.err != nil {
		return nil, fmt.Errorf("/api/fleet: %w", d.err)
	}
	if v.Schema != export.FleetSchemaVersion {
		return nil, fmt.Errorf("schema skew: leaf serves %d, head wants %d",
			v.Schema, export.FleetSchemaVersion)
	}
	for i := range v.Devices {
		s := &v.Devices[i]
		if s.Pairs < 0 || s.Pairs > source.MaxChannels ||
			len(s.PairWatts) > s.Pairs || len(s.Channels) > s.Pairs {
			return nil, fmt.Errorf("/api/fleet: station %q: malformed shape: %d pairs, %d readings, %d channels",
				s.Name, s.Pairs, len(s.PairWatts), len(s.Channels))
		}
	}
	d.devHint = len(v.Devices)
	return v, nil
}

// fleetMember scans the value of the top-level member key into v and
// reports whether key is a known member. An unknown key's value is left
// unscanned.
func (d *fleetDecoder) fleetMember(key []byte, v *export.FleetJSON) bool {
	switch string(key) {
	case "schema":
		v.Schema = int(d.int())
	case "generation":
		v.Generation = d.uint()
	case "devices":
		v.Devices = d.devices()
	default:
		return false
	}
	return true
}

// devices scans the devices array into a fresh slice.
func (d *fleetDecoder) devices() []fleet.Status {
	if d.null() || !d.open('[') {
		return nil
	}
	// Pre-size from the last body, but never beyond what this body can
	// hold: a station's object is far longer than 64 bytes.
	devs := make([]fleet.Status, 0, min(d.devHint, len(d.b)/64))
	for first := true; d.more(']', &first); {
		devs = append(devs, fleet.Status{})
		if !d.null() {
			d.status(&devs[len(devs)-1])
		}
	}
	return devs
}

// status scans one station object into s.
func (d *fleetDecoder) status(s *fleet.Status) {
	if !d.open('{') {
		return
	}
	var discard fleet.Status
	for first := true; d.more('}', &first); {
		if key := d.key(); !d.statusMember(key, s) && !d.statusMember(d.foldKey(key), &discard) {
			d.skip()
		}
	}
}

// statusMember scans the value of station member key into s and reports
// whether key is a known member. An unknown key's value is left
// unscanned.
func (d *fleetDecoder) statusMember(key []byte, s *fleet.Status) bool {
	switch string(key) {
	case "name":
		s.Name = d.str()
	case "kind":
		s.Kind = d.str()
	case "backend":
		s.Backend = d.str()
	case "rate_hz":
		s.RateHz = d.float()
	case "channels":
		s.Channels = d.strs()
	case "pairs":
		s.Pairs = int(d.int())
	case "now":
		s.Now = time.Duration(d.int())
	case "watts":
		s.Watts = d.float()
	case "pair_watts":
		s.PairWatts = d.floats()
	case "joules":
		s.Joules = d.float()
	case "state":
		s.State = d.str()
	case "samples":
		s.Samples = d.uint()
	case "marks":
		s.Marks = d.uint()
	case "resyncs":
		s.Resyncs = int(d.int())
	case "overhead_seconds":
		s.OverheadSeconds = d.float()
	case "ring_len":
		s.RingLen = int(d.int())
	case "ring_total":
		s.RingTotal = d.uint()
	case "health":
		s.Health = d.str()
	case "gaps":
		s.Gaps = d.uint()
	case "flatlines":
		s.Flatlines = d.uint()
	case "spikes_quarantined":
		s.SpikesQuarantined = d.uint()
	case "restarts":
		s.Restarts = d.uint()
	default:
		return false
	}
	return true
}

// foldKey returns the lowercase-ASCII spelling an unknown key folds to,
// or the key unchanged when no such spelling exists. encoding/json
// matches member names case-insensitively, so it would decode "Pairs"
// into pairs; the decoder matches exactly and discards such a member,
// but still holds its value to the known member's type, so every body
// the decoder accepts is one encoding/json accepts too.
func (d *fleetDecoder) foldKey(key []byte) []byte {
	out := d.folded[:0]
	for _, r := range string(key) {
		if r >= utf8.RuneSelf {
			// A non-ASCII rune matches an ASCII letter only through
			// its simple-fold orbit (U+017F ſ is s, U+212A K is k).
			for f := unicode.SimpleFold(r); f != r; f = unicode.SimpleFold(f) {
				if f < utf8.RuneSelf {
					r = f
					break
				}
			}
		}
		if r >= 'A' && r <= 'Z' {
			r += 'a' - 'A'
		}
		out = utf8.AppendRune(out, r)
	}
	d.folded = out
	return out
}

// fail records the first error with the offset it was found at.
func (d *fleetDecoder) fail(msg string) {
	if d.err == nil {
		d.err = fmt.Errorf("offset %d: %s", d.i, msg)
	}
}

// ws skips JSON whitespace.
func (d *fleetDecoder) ws() {
	for d.i < len(d.b) {
		if c := d.b[d.i]; c > ' ' || c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return
		}
		d.i++
	}
}

// open consumes the opening bracket c of an object or array, one level
// deeper.
func (d *fleetDecoder) open(c byte) bool {
	if d.err != nil {
		return false
	}
	d.ws()
	if d.i >= len(d.b) || d.b[d.i] != c {
		if c == '{' {
			d.fail("want an object")
		} else {
			d.fail("want an array")
		}
		return false
	}
	d.i++
	if d.depth++; d.depth > maxNesting {
		d.fail("nested too deeply")
		return false
	}
	return true
}

// more reports whether the object or array closed by c has another
// member, consuming the separating comma — or, at the end, the closing
// bracket. Every loop over members runs `for first := true; d.more(c,
// &first); { ... }`.
func (d *fleetDecoder) more(c byte, first *bool) bool {
	if d.err != nil {
		return false
	}
	d.ws()
	if d.i >= len(d.b) {
		d.fail("unexpected end of body")
		return false
	}
	if d.b[d.i] == c {
		d.i++
		d.depth--
		return false
	}
	if !*first {
		if d.b[d.i] != ',' {
			d.fail("want a comma or " + string(c))
			return false
		}
		d.i++
	}
	*first = false
	return true
}

// key scans an object member's key and its colon. The returned bytes
// are valid until the next string is scanned.
func (d *fleetDecoder) key() []byte {
	k := d.rawString()
	d.ws()
	if d.err == nil {
		if d.i >= len(d.b) || d.b[d.i] != ':' {
			d.fail("want a colon")
			return nil
		}
		d.i++
	}
	return k
}

// null consumes a null literal if one comes next.
func (d *fleetDecoder) null() bool {
	if d.err != nil {
		return false
	}
	d.ws()
	if d.i < len(d.b) && d.b[d.i] == 'n' {
		d.literal("null")
		return d.err == nil
	}
	return false
}

// literal consumes the literal word, which starts at the cursor.
func (d *fleetDecoder) literal(word string) {
	if len(d.b)-d.i < len(word) || string(d.b[d.i:d.i+len(word)]) != word {
		d.fail("invalid literal")
		return
	}
	d.i += len(word)
}

// str scans a string member (null reads as "") and interns it.
func (d *fleetDecoder) str() string {
	if d.null() {
		return ""
	}
	raw := d.rawString()
	if d.err != nil {
		return ""
	}
	if s, ok := d.interned[string(raw)]; ok {
		return s
	}
	s := string(raw)
	if d.interned == nil || len(d.interned) >= internCap {
		d.interned = make(map[string]string)
	}
	d.interned[s] = s
	return s
}

// strs scans an array of strings into a fresh slice; null reads as nil.
func (d *fleetDecoder) strs() []string {
	if d.null() || !d.open('[') {
		return nil
	}
	out := []string{}
	for first := true; d.more(']', &first); {
		out = append(out, d.str())
	}
	return out
}

// floats scans an array of numbers into a fresh slice; null reads as
// nil, and a null element as NaN.
func (d *fleetDecoder) floats() []float64 {
	if d.null() || !d.open('[') {
		return nil
	}
	out := []float64{}
	for first := true; d.more(']', &first); {
		out = append(out, d.float())
	}
	return out
}

// float scans a number as a float64; null — how a leaf spells a NaN or
// infinite reading — reads as NaN. A literal beyond float64's range is
// refused, as encoding/json refuses it.
func (d *fleetDecoder) float() float64 {
	if d.null() {
		return math.NaN()
	}
	lit := d.number()
	if d.err != nil {
		return 0
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		d.fail("number out of float64 range")
		return 0
	}
	return f
}

// int scans an integer member (null reads as 0). A fraction, exponent or
// out-of-range value is refused, as encoding/json refuses it.
func (d *fleetDecoder) int() int64 {
	if d.null() {
		return 0
	}
	lit := d.number()
	if d.err != nil {
		return 0
	}
	n, err := strconv.ParseInt(string(lit), 10, 64)
	if err != nil {
		d.fail("number is not a 64-bit integer")
		return 0
	}
	return n
}

// uint scans an unsigned integer member exactly (null reads as 0).
func (d *fleetDecoder) uint() uint64 {
	if d.null() {
		return 0
	}
	lit := d.number()
	if d.err != nil {
		return 0
	}
	n, err := strconv.ParseUint(string(lit), 10, 64)
	if err != nil {
		d.fail("number is not an unsigned 64-bit integer")
		return 0
	}
	return n
}

// number scans one JSON number literal and returns its bytes.
func (d *fleetDecoder) number() []byte {
	if d.err != nil {
		return nil
	}
	d.ws()
	b, start := d.b, d.i
	i := start
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && b[i] >= '1' && b[i] <= '9':
		i = digits(b, i+1)
	default:
		d.fail("want a value")
		return nil
	}
	if i < len(b) && b[i] == '.' {
		if j := digits(b, i+1); j > i+1 {
			i = j
		} else {
			d.i = i + 1
			d.fail("want a digit after the decimal point")
			return nil
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if j := digits(b, i); j > i {
			i = j
		} else {
			d.i = i
			d.fail("want a digit in the exponent")
			return nil
		}
	}
	d.i = i
	return b[start:i]
}

// digits returns the index past the run of decimal digits at b[i:].
func digits(b []byte, i int) int {
	for i < len(b) && b[i] >= '0' && b[i] <= '9' {
		i++
	}
	return i
}

// rawString scans a string literal and returns its unescaped content,
// unquoted as encoding/json does: escapes decoded, a \u surrogate pair
// joined, a lone surrogate and each byte of invalid UTF-8 replaced by
// U+FFFD. The bytes alias the body or the decoder's scratch and are
// valid until the next string is scanned.
func (d *fleetDecoder) rawString() []byte {
	if d.err != nil {
		return nil
	}
	d.ws()
	b := d.b
	if d.i >= len(b) || b[d.i] != '"' {
		d.fail("want a string")
		return nil
	}
	start := d.i + 1
	i := start
	for i < len(b) {
		c := b[i]
		if c == '"' {
			d.i = i + 1
			return b[start:i]
		}
		if c == '\\' || c < 0x20 || c >= utf8.RuneSelf {
			break
		}
		i++
	}
	// Slow path: escapes, control bytes or non-ASCII from here on.
	out := append(d.tmp[:0], b[start:i]...)
	for {
		if i >= len(b) {
			d.i = i
			d.fail("unterminated string")
			return nil
		}
		c := b[i]
		switch {
		case c == '"':
			d.i = i + 1
			d.tmp = out
			return out
		case c < 0x20:
			d.i = i
			d.fail("control character in string")
			return nil
		case c == '\\':
			if i+1 >= len(b) {
				d.i = i
				d.fail("unterminated string")
				return nil
			}
			if k := strings.IndexByte(`"\/bfnrt`, b[i+1]); k >= 0 {
				out = append(out, "\"\\/\b\f\n\r\t"[k])
				i += 2
				continue
			}
			r := rune(-1)
			if b[i+1] == 'u' {
				r = hex4(b, i+2)
			}
			if r < 0 {
				d.i = i
				d.fail("invalid escape in string")
				return nil
			}
			i += 6
			if utf16.IsSurrogate(r) {
				// Join a pair; a lone surrogate reads as U+FFFD, and
				// an escape after it is read on its own.
				r2 := rune(-1)
				if i+1 < len(b) && b[i] == '\\' && b[i+1] == 'u' {
					r2 = hex4(b, i+2)
				}
				if r = utf16.DecodeRune(r, r2); r != utf8.RuneError {
					i += 6
				}
			}
			out = utf8.AppendRune(out, r)
		case c < utf8.RuneSelf:
			out = append(out, c)
			i++
		default:
			r, size := utf8.DecodeRune(b[i:])
			out = utf8.AppendRune(out, r)
			i += size
		}
	}
}

// hex4 parses the four hex digits at b[i:] as a rune, or returns -1.
func hex4(b []byte, i int) rune {
	if len(b)-i < 4 {
		return -1
	}
	n, err := strconv.ParseUint(string(b[i:i+4]), 16, 32)
	if err != nil {
		return -1
	}
	return rune(n)
}

// skip validates and skips one value of any type.
func (d *fleetDecoder) skip() {
	if d.err != nil {
		return
	}
	d.ws()
	if d.i >= len(d.b) {
		d.fail("unexpected end of body")
		return
	}
	switch d.b[d.i] {
	case '{':
		d.open('{')
		for first := true; d.more('}', &first); {
			d.key()
			d.skip()
		}
	case '[':
		d.open('[')
		for first := true; d.more(']', &first); {
			d.skip()
		}
	case '"':
		d.rawString()
	case 't':
		d.literal("true")
	case 'f':
		d.literal("false")
	case 'n':
		d.literal("null")
	default:
		d.number()
	}
}
