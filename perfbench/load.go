package main

import (
	"embed"
	"encoding/json"
	"fmt"
	"strconv"
	"sync"
	"time"

	"repro/internal/sim"
)

//go:embed specs/*.json
var specFiles embed.FS

// loadSpec reads one of the workload specs beside the benchmark.
func loadSpec(name string) (sim.Spec, error) {
	var spec sim.Spec
	data, err := specFiles.ReadFile("specs/" + name + ".json")
	if err != nil {
		return spec, err
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return spec, fmt.Errorf("spec %s: %w", name, err)
	}
	return spec, spec.Validate()
}

// requests returns the trace's request events in trace order.
func requests(t *sim.Trace) []sim.Event {
	var out []sim.Event
	for _, ev := range t.Events {
		if ev.Kind == sim.KindRequest {
			out = append(out, ev)
		}
	}
	return out
}

// shapeKey names what a request asks the service to design: every request
// field the server reads. Two requests with one key must get one design.
func shapeKey(ev sim.Event) string {
	theta := "-"
	if ev.Theta != nil {
		theta = strconv.FormatFloat(*ev.Theta, 'g', -1, 64)
	}
	return fmt.Sprintf("%s/%d/seed=%d/theta=%s/fdm=%d/anneal=%d/defects=%s",
		ev.Topology, ev.Qubits, ev.Seed, theta, ev.FDMCapacity, ev.AnnealSteps,
		strconv.FormatFloat(ev.DefectRate, 'g', -1, 64))
}

// firstSeen marks the requests whose shape is neither in known (the shapes
// the service was given before the trace starts) nor earlier in the
// trace. It reads the trace and known alone, so the classification is the
// same whatever the service did.
func firstSeen(reqs, known []sim.Event) []bool {
	seen := make(map[string]bool)
	for _, ev := range known {
		seen[shapeKey(ev)] = true
	}
	out := make([]bool, len(reqs))
	for i, ev := range reqs {
		k := shapeKey(ev)
		out[i] = !seen[k]
		seen[k] = true
	}
	return out
}

// openLoop releases request i at due[i] after the start onto a queue that
// conns workers serve with do, whatever the system's progress. It returns
// each request's latency counted from its due time, so time spent queued
// behind a stall is charged to the request, and how late the generator
// released each one.
func openLoop(due []time.Duration, conns int, do func(i int)) (lat, late []time.Duration) {
	lat = make([]time.Duration, len(due))
	late = make([]time.Duration, len(due))
	// Sized to the request count: the generator must never block on a
	// slow system, or it would stop being an open loop.
	queue := make(chan int, len(due))
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				do(i)
				lat[i] = time.Since(start) - due[i]
			}
		}()
	}
	for i, d := range due {
		if wait := d - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		late[i] = time.Since(start) - d
		queue <- i
	}
	close(queue)
	wg.Wait()
	return lat, late
}
