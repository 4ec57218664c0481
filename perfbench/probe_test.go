package main

import (
	"math"
	"testing"
	"time"
)

func TestProbeReading(t *testing.T) {
	stop := startProbe()
	time.Sleep(30 * time.Millisecond)
	r := stop()
	if r <= 0 || math.IsInf(r, 0) || math.IsNaN(r) {
		t.Fatalf("probe reading %g, want a positive finite slowdown", r)
	}
	// A stopped probe times nothing more: a second probe starts afresh.
	if r2 := startProbe()(); r2 <= 0 {
		t.Errorf("an immediately stopped probe read %g, want the one chunk it timed", r2)
	}
}
