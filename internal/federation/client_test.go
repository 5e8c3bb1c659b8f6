// Fuzz target for the head's trust boundary: whatever bytes a leaf
// serves as /api/fleet, decoding either refuses them or yields statuses
// the segment renderer renders without panicking.

package federation

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/export"
	"repro/internal/fleet"
)

func FuzzLeafFleetBody(f *testing.F) {
	// Seeds: the body TestFleetJSONWireFormat's two-station leaf serves,
	// and the skewed body TestHeadMalformedLeafBody serves.
	mgr, err := fleet.FromSpec("w0=synth,w1=synth", 1, fleet.Config{RingCap: 128})
	if err != nil {
		f.Fatal(err)
	}
	defer mgr.Close()
	mgr.StepAll(20 * time.Millisecond)
	wire, err := json.Marshal(export.FleetJSON{
		Schema:     export.FleetSchemaVersion,
		Generation: mgr.Gen(),
		Devices:    mgr.Snapshot(),
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(wire)
	f.Add([]byte(`{"schema":1,"generation":7,"devices":[{"name":"x","backend":"b","kind":"k","pairs":1,"channels":["c"],"pair_watts":[1,2,3]}]}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		v, err := decodeFleet(bytes.NewReader(body))
		if err != nil {
			return
		}
		r := export.NewRenderer(`le"af`)
		r.Render(v.Devices)
		r.Render(v.Devices) // the warm-cache path
		segs := make([]export.Segment, 1)
		r.CopySegment(&segs[0])
		export.AppendSegments(nil, segs)
	})
}
