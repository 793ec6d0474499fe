package experiments

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/chip"
	"repro/internal/faults"
	"repro/internal/obs"
)

// designSnapshot runs a full faulted design at the given worker count
// with a fresh registry on Options.Obs, which captures both the stage
// metrics and the subsystem counters, and returns the stripped
// (deterministic-subset) snapshot.
func designSnapshot(t *testing.T, workers int) obs.Snapshot {
	t.Helper()
	reg := obs.New()
	opts := Options{
		Seed:    3,
		Workers: workers,
		Faults:  faults.UniformSpec(0.02),
		Obs:     reg,
	}
	if _, err := BuildPipeline(chip.Square(5, 5), opts); err != nil {
		t.Fatal(err)
	}
	return reg.Snapshot().StripTimings()
}

// The observability determinism contract: every counter, histogram
// count and span count of a design is a pure function of (chip,
// options, seed) — the worker budget moves only timings and gauges,
// which StripTimings removes.
func TestDesignSnapshotWorkerInvariant(t *testing.T) {
	seq := designSnapshot(t, 1)
	par := designSnapshot(t, 4)
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("stripped snapshots differ across worker counts:\nworkers=1: %+v\nworkers=4: %+v", seq, par)
	}
	if seq.Counters["stage/misses"] == 0 {
		t.Error("stage/misses stayed 0 across a cold design")
	}
	if seq.Counters["faults/pairs"] == 0 {
		t.Error("faults/pairs stayed 0 across a faulted calibration campaign")
	}
	var sawDesignSpan bool
	for _, sp := range seq.Spans {
		if sp.Path == "design" {
			sawDesignSpan = true
		}
		if sp.WallNs != 0 {
			t.Errorf("span %s kept wall time %d after StripTimings", sp.Path, sp.WallNs)
		}
	}
	if !sawDesignSpan {
		t.Error("no design root span recorded")
	}
}

// A warm Redesign through a Designer must hit the cache and say so.
func TestRedesignHitCounters(t *testing.T) {
	reg := obs.New()
	d := NewDesigner(chip.Square(4, 4))
	opts := Options{Seed: 2, Obs: reg}
	if _, err := d.Redesign(opts); err != nil {
		t.Fatal(err)
	}
	cold := reg.Snapshot()
	if _, err := d.Redesign(opts); err != nil {
		t.Fatal(err)
	}
	warm := reg.Snapshot()
	if warm.Counters["stage/hits"] <= cold.Counters["stage/hits"] {
		t.Errorf("warm redesign added no stage/hits (cold %d, warm %d)",
			cold.Counters["stage/hits"], warm.Counters["stage/hits"])
	}
	if warm.Counters["stage/misses"] != cold.Counters["stage/misses"] {
		t.Errorf("warm redesign re-executed stages: misses %d -> %d",
			cold.Counters["stage/misses"], warm.Counters["stage/misses"])
	}
}

// Digest identifies the designed artifact, so the execution-only knobs
// — Workers, Fit.Workers and Obs — must not move it, while any
// design-relevant option must.
func TestOptionsDigestExcludesExecutionKnobs(t *testing.T) {
	base := Options{Seed: 2}
	same := Options{Seed: 2, Workers: 8, Obs: obs.New()}
	same.Fit.Workers = 4
	if base.Digest() != same.Digest() {
		t.Error("Workers/Obs moved the options digest")
	}
	for name, other := range map[string]Options{
		"seed":  {Seed: 3},
		"theta": {Seed: 2, Theta: 2, HasTheta: true},
		"fdm":   {Seed: 2, FDMCapacity: 3},
		"fault": {Seed: 2, Faults: faults.UniformSpec(0.01)},
	} {
		if other.Digest() == base.Digest() {
			t.Errorf("%s change left the digest unchanged", name)
		}
	}
}

// Concurrent builds on one DesignCache (the store behind
// youtiao.SharedCache) record into their own Options.Obs only: each
// registry sees exactly its build's 8 stage executions and its own
// calibration campaign, and a later warm build with a third registry
// records hits and none of the recalled work.
func TestDesignCacheObsIsolation(t *testing.T) {
	dc := NewDesignCache()
	chips := []*chip.Chip{chip.Square(4, 4), chip.Square(6, 6)}
	regs := []*obs.Registry{obs.New(), obs.New()}
	errs := make([]error, len(chips))
	var wg sync.WaitGroup
	for i := range chips {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = dc.Designer(chips[i]).Redesign(Options{Seed: 1, Obs: regs[i]})
		}(i)
	}
	wg.Wait()
	for i, reg := range regs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		n := int64(chips[i].NumQubits())
		c := reg.Snapshot().Counters
		if c["stage/misses"] != 8 || c["stage/hits"] != 0 {
			t.Errorf("%dq build: stage/misses %d hits %d, want 8 and 0", n, c["stage/misses"], c["stage/hits"])
		}
		if want := n * (n - 1); c["faults/pairs"] != want {
			t.Errorf("%dq build: faults/pairs %d, want %d (XY + ZZ campaigns)", n, c["faults/pairs"], want)
		}
		if c["crosstalk/fits"] != 2 {
			t.Errorf("%dq build: crosstalk/fits %d, want 2", n, c["crosstalk/fits"])
		}
	}

	warm := obs.New()
	if _, err := dc.Designer(chips[0]).Redesign(Options{Seed: 1, Obs: warm}); err != nil {
		t.Fatal(err)
	}
	c := warm.Snapshot().Counters
	if c["stage/hits"] != 8 || c["stage/misses"] != 0 || c["faults/pairs"] != 0 || c["parallel/calls"] != 1 {
		t.Errorf("warm build: hits %d misses %d faults/pairs %d parallel/calls %d, want 8, 0, 0, 1",
			c["stage/hits"], c["stage/misses"], c["faults/pairs"], c["parallel/calls"])
	}
}
