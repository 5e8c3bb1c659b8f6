// Leaf-facing surface of the exporter: the versioned /api/fleet wire
// format a federation head consumes, and its reflection-free encoder.
// The head renders each leaf's stations through the same Renderer the
// exporter's shards use (see segment.go), named for the leaf so every
// label block carries a leaf label and duplicate station names across
// leaves stay distinct series; it composes its own self families with
// the exporter's Header, Escape, AppendSample and HistSeries.

package export

import (
	"math"
	"strconv"
	"unicode/utf8"

	"repro/internal/fleet"
)

// FleetSchemaVersion is the wire-format version of the /api/fleet JSON
// body. A federation head refuses a leaf whose schema differs — leaf and
// head builds skewing apart must fail loudly at the poll, not silently
// misrender stations. Bump it whenever a field the head consumes
// changes meaning or shape.
const FleetSchemaVersion = 1

// FleetJSON is the /api/fleet response body — the leaf side of the
// federation wire format. Schema pins the format version, Generation is
// the fleet's render generation counter (fleet.Manager.Gen; it also
// backs the endpoint's ETag, so a head can skip both the body transfer
// and its own re-render while a leaf is quiet), and Devices carries the
// per-station statuses with everything a head consumes: health, backend,
// native rate, and the lifecycle state.
//
// The leaf serves the body compact, written by AppendFleetJSON rather
// than encoding/json. The keys, in order, are the struct tags below and
// fleet.Status's. A non-finite reading (a NaN, or an overflowed Inf)
// has no JSON spelling, so it travels as null; one bad station cannot
// blank the whole body. A head matches keys exactly and decodes a null
// reading as NaN.
type FleetJSON struct {
	Schema     int            `json:"schema"`
	Generation uint64         `json:"generation"`
	Devices    []fleet.Status `json:"devices"`
}

// FleetETag renders the /api/fleet ETag for a generation counter.
// Shared by the serving side and any client building If-None-Match.
func FleetETag(gen uint64) string {
	return `"ps-` + strconv.FormatUint(gen, 16) + `"`
}

// AppendFleetJSON appends the compact /api/fleet body for generation gen
// and the stations devs, newline-terminated; devices is always an array,
// [] for an empty fleet. It allocates only to grow b.
func AppendFleetJSON(b []byte, gen uint64, devs []fleet.Status) []byte {
	b = append(b, `{"schema":`...)
	b = strconv.AppendInt(b, FleetSchemaVersion, 10)
	b = append(b, `,"generation":`...)
	b = strconv.AppendUint(b, gen, 10)
	b = append(b, `,"devices":[`...)
	for i := range devs {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '{')
		b = AppendStatusFields(b, &devs[i])
		b = append(b, '}')
	}
	return append(b, "]}\n"...)
}

// AppendStatusFields appends s's members in FleetJSON's wire form —
// `"name":...,"restarts":N`, without the enclosing braces, so a consumer
// can embed a status in an object of its own (the head's merged view).
func AppendStatusFields(b []byte, s *fleet.Status) []byte {
	b = append(b, `"name":`...)
	b = AppendJSONString(b, s.Name)
	b = append(b, `,"kind":`...)
	b = AppendJSONString(b, s.Kind)
	b = append(b, `,"backend":`...)
	b = AppendJSONString(b, s.Backend)
	b = append(b, `,"rate_hz":`...)
	b = appendJSONFloat(b, s.RateHz)
	b = append(b, `,"channels":`...)
	if s.Channels == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, c := range s.Channels {
			if i > 0 {
				b = append(b, ',')
			}
			b = AppendJSONString(b, c)
		}
		b = append(b, ']')
	}
	b = append(b, `,"pairs":`...)
	b = strconv.AppendInt(b, int64(s.Pairs), 10)
	b = append(b, `,"now":`...)
	b = strconv.AppendInt(b, int64(s.Now), 10)
	b = append(b, `,"watts":`...)
	b = appendJSONFloat(b, s.Watts)
	b = append(b, `,"pair_watts":`...)
	if s.PairWatts == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, v := range s.PairWatts {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendJSONFloat(b, v)
		}
		b = append(b, ']')
	}
	b = append(b, `,"joules":`...)
	b = appendJSONFloat(b, s.Joules)
	b = append(b, `,"state":`...)
	b = AppendJSONString(b, s.State)
	b = append(b, `,"samples":`...)
	b = strconv.AppendUint(b, s.Samples, 10)
	b = append(b, `,"marks":`...)
	b = strconv.AppendUint(b, s.Marks, 10)
	b = append(b, `,"resyncs":`...)
	b = strconv.AppendInt(b, int64(s.Resyncs), 10)
	b = append(b, `,"overhead_seconds":`...)
	b = appendJSONFloat(b, s.OverheadSeconds)
	b = append(b, `,"ring_len":`...)
	b = strconv.AppendInt(b, int64(s.RingLen), 10)
	b = append(b, `,"ring_total":`...)
	b = strconv.AppendUint(b, s.RingTotal, 10)
	b = append(b, `,"health":`...)
	b = AppendJSONString(b, s.Health)
	b = append(b, `,"gaps":`...)
	b = strconv.AppendUint(b, s.Gaps, 10)
	b = append(b, `,"flatlines":`...)
	b = strconv.AppendUint(b, s.Flatlines, 10)
	b = append(b, `,"spikes_quarantined":`...)
	b = strconv.AppendUint(b, s.SpikesQuarantined, 10)
	b = append(b, `,"restarts":`...)
	return strconv.AppendUint(b, s.Restarts, 10)
}

// appendJSONFloat appends f as encoding/json spells a float64 — the
// shortest decimal that parses back to the same bits, in exponent form
// outside [1e-6, 1e21) — or as null when f is NaN or infinite.
func appendJSONFloat(b []byte, f float64) []byte {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return append(b, "null"...)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// Shorten a two-digit negative exponent: e-07 to e-7.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// AppendJSONString appends s as a JSON string literal: quote, backslash
// and control bytes escaped, and each byte of invalid UTF-8 replaced by
// U+FFFD, as encoding/json does.
func AppendJSONString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
			i++
			start = i
			continue
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
