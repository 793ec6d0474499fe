package main

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/sim"
)

func TestFirstSeenReadsTraceAlone(t *testing.T) {
	theta := 3.0
	reqs := []sim.Event{
		{Topology: "square", Qubits: 16, Seed: 1},
		{Topology: "square", Qubits: 16, Seed: 1},                // repeat
		{Topology: "square", Qubits: 16, Seed: 2},                // new seed
		{Topology: "square", Qubits: 16, Seed: 1, Theta: &theta}, // new theta
		{Topology: "square", Qubits: 16, Seed: 1, DefectRate: 0.02},
		{Topology: "square", Qubits: 16, Seed: 1, DefectRate: 0.02}, // repeat after drift
		{Topology: "square", Qubits: 16, Seed: 1, DefectRate: 0.03}, // drift again
		{Topology: "hexagon", Qubits: 16, Seed: 1},
		{Topology: "square", Qubits: 16, Seed: 2, Client: "other"}, // the client is not part of the shape
	}
	want := []bool{true, false, true, true, true, false, true, true, false}
	got := firstSeen(reqs, nil)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("request %d: first seen = %v, want %v", i, got[i], want[i])
		}
	}

	// Shapes the service was given before the trace are never first seen.
	known := []sim.Event{{Topology: "square", Qubits: 16, Seed: 1, Client: "setup"}}
	want[0] = false
	got = firstSeen(reqs, known)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("with a known shape, request %d: first seen = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestFirstSeenOnGeneratedChurn(t *testing.T) {
	spec, err := loadSpec("churn")
	if err != nil {
		t.Fatal(err)
	}
	spec.DurationSec = 5
	tr, err := sim.Generate(spec, 7)
	if err != nil {
		t.Fatal(err)
	}
	reqs := requests(tr)
	initial := initialShapes(spec)
	fs := firstSeen(reqs, initial)
	known := map[string]bool{}
	for _, ev := range initial {
		known[shapeKey(ev)] = true
	}
	// Set-up designs the initial shapes, so no request for one is first
	// seen; a request after a drift carries a defect rate no earlier
	// request had, so it must be first seen.
	rates := map[string]bool{}
	drifts := 0
	for i, ev := range reqs {
		key := fmt.Sprint(ev.Chip, "/", ev.DefectRate)
		switch {
		case known[shapeKey(ev)]:
			if fs[i] {
				t.Fatalf("request %d has an initial shape but is first seen", i)
			}
		case !rates[key]:
			drifts++
			if !fs[i] {
				t.Fatalf("request %d is the first at its chip's post-drift defect rate but not first seen", i)
			}
		}
		rates[key] = true
	}
	if drifts == 0 || countTrue(fs) < drifts {
		t.Fatalf("%d drifts, %d first seen: the trace exercises nothing", drifts, countTrue(fs))
	}
	again := firstSeen(requests(mustGenerate(t, spec, 7)), initial)
	for i := range fs {
		if fs[i] != again[i] {
			t.Fatalf("classification of request %d differs between two generations of one seed", i)
		}
	}
}

func mustGenerate(t *testing.T, spec sim.Spec, seed int64) *sim.Trace {
	t.Helper()
	tr, err := sim.Generate(spec, seed)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestOpenLoopChargesQueueingFromDueTime(t *testing.T) {
	const work = 30 * time.Millisecond
	// Three requests due at once on one connection: the second and third
	// wait for the first, and that wait is part of their latency.
	due := []time.Duration{0, 0, 0, 200 * time.Millisecond}
	lat, late := openLoop(due, 1, func(int) { time.Sleep(work) })
	for i, min := range []time.Duration{work, 2 * work, 3 * work, work} {
		if lat[i] < min {
			t.Errorf("request %d latency %v < %v", i, lat[i], min)
		}
	}
	// The fourth is due long after the backlog drains, so it waits for
	// nothing but its own work.
	if lat[3] > work+20*time.Millisecond {
		t.Errorf("request 3 latency %v includes time before it was due", lat[3])
	}
	for i, l := range late {
		if l < 0 || l > 20*time.Millisecond {
			t.Errorf("request %d released %v late", i, l)
		}
	}
}

func TestOpenLoopDoesNotWaitForTheSystem(t *testing.T) {
	// One connection stuck on a slow request must not delay the release
	// of the requests due behind it.
	due := []time.Duration{0, 10 * time.Millisecond, 20 * time.Millisecond}
	_, late := openLoop(due, 1, func(i int) {
		if i == 0 {
			time.Sleep(100 * time.Millisecond)
		}
	})
	for i, l := range late {
		if l > 20*time.Millisecond {
			t.Errorf("request %d released %v late behind a stalled connection", i, l)
		}
	}
}
