package loadgen

import (
	"testing"
	"time"
)

// TestRunRecovery drives the full kill/restart drill at smoke scale:
// subscribe-and-disconnect, publish into hibernated sessions, SIGKILL
// the host, restart on the same spool; publish again while three
// sessions are resident and reading, SIGKILL again mid-forward, restart,
// publish more, drain. The gate is the drill's own: every session
// recovered, zero lost, duplicates tallied.
func TestRunRecovery(t *testing.T) {
	rep, err := RunRecovery(Config{
		Publishers:    2,
		Devices:       12,
		Topics:        4,
		Notifications: 120,
		PayloadBytes:  48,
		Concurrent:    3,
		SpoolDir:      t.TempDir(),
		TraceSample:   1.0,
		Timeout:       60 * time.Second,
		Logf:          t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Recovered != 12 {
		t.Fatalf("recovered %d sessions, want 12", rep.Recovered)
	}
	if rep.Lost != 0 {
		t.Fatalf("lost %d notifications across the kill, want 0", rep.Lost)
	}
	// 120 notifications over 4 topics = 30 per topic; 12 devices = 3
	// subscribers per topic: 360 distinct deliveries owed.
	if rep.Delivered != 360 {
		t.Fatalf("delivered %d, want 360", rep.Delivered)
	}
	if got := rep.TraceOutcomes["lost"]; got != 0 {
		t.Fatalf("trace outcomes report %d lost: %v", got, rep.TraceOutcomes)
	}
	if rep.Duplicates > rep.Delivered {
		t.Fatalf("unbounded duplicates: %d for %d deliveries", rep.Duplicates, rep.Delivered)
	}
}
