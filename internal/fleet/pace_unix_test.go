//go:build unix

package fleet

import (
	"syscall"
	"testing"
	"time"
)

// processCPU returns the user plus system CPU time this process has used.
func processCPU(t *testing.T) time.Duration {
	t.Helper()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// TestUnpacedEmptyFleetIdles: an unpaced pacer over a fleet with no
// stations, whether it started empty or lost its last station to Remove,
// does not spin a core stepping empty shards, and a station Added later
// is still stepped from the next quantum.
func TestUnpacedEmptyFleetIdles(t *testing.T) {
	const window = 300 * time.Millisecond
	m := NewManager(Config{})
	t.Cleanup(m.Close)
	m.Start()
	defer m.Stop()
	if _, err := m.Add("gone0", "stub", &stubSource{}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "gone0 to be stepped", func() bool {
		return m.Device("gone0").Status().Now > 0
	})
	if err := m.Remove("gone0"); err != nil {
		t.Fatal(err)
	}

	cpu0, wall0 := processCPU(t), time.Now()
	time.Sleep(window)
	cpu, wall := processCPU(t)-cpu0, time.Since(wall0)
	// A spinning pacer burns about one core for the whole window; an
	// idle one wakes once per Slice and costs next to nothing.
	if cpu > wall/3 {
		t.Fatalf("empty unpaced fleet used %v CPU in %v wall: the pacer is spinning", cpu, wall)
	}

	d, err := m.Add("late0", "stub", &stubSource{})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "late0 to be stepped", func() bool {
		return d.Status().Now > 0
	})
}
