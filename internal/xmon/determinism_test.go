package xmon

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/chip"
	"repro/internal/hypo/testkit"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// TestMeasureSeededWorkerCountInvariant: the parallel calibration
// campaign must return byte-identical samples for Workers=1 and
// Workers=4 across several seeds — each pair's noise comes from its
// own split stream, never from a shared generator.
func TestMeasureSeededWorkerCountInvariant(t *testing.T) {
	d := NewDevice(chip.Square(5, 5), DefaultParams(), rand.New(rand.NewSource(1)))
	testkit.SeedMatrix(t, []int64{1, 2, 3}, func(t *testing.T, seed int64) {
		for _, kind := range []CrosstalkKind{XY, ZZ} {
			testkit.WorkerInvariant(t, 1, []int{4}, func(workers int) []Sample {
				return d.MeasureSeeded(context.Background(), kind, 0.05, seed, workers)
			})
		}
	})
}

// TestMeasureSeededPairOrderMatchesMeasure: the parallel campaign must
// keep Measure's (i<j) pair enumeration so downstream subsampling and
// fitting see the same dataset shape.
func TestMeasureSeededPairOrderMatchesMeasure(t *testing.T) {
	d := NewDevice(chip.Square(4, 4), DefaultParams(), rand.New(rand.NewSource(2)))
	ref := d.Measure(XY, 0, rand.New(rand.NewSource(9)))
	got := d.MeasureSeeded(context.Background(), XY, 0, 9, 4)
	if len(got) != len(ref) {
		t.Fatalf("%d vs %d samples", len(got), len(ref))
	}
	for p := range ref {
		if got[p].I != ref[p].I || got[p].J != ref[p].J {
			t.Fatalf("pair %d: (%d,%d) vs (%d,%d)", p, got[p].I, got[p].J, ref[p].I, ref[p].J)
		}
		// With noiseRel = 0 the measured values are the latent
		// crosstalk, independent of any RNG scheme.
		if got[p].Value != ref[p].Value {
			t.Fatalf("pair %d: noiseless values differ", p)
		}
	}
}

// TestMeasureSeededSeedSensitivity: different seeds must produce
// different noise realizations (the streams are real randomness, not
// a constant).
func TestMeasureSeededSeedSensitivity(t *testing.T) {
	d := NewDevice(chip.Square(4, 4), DefaultParams(), rand.New(rand.NewSource(3)))
	a := d.MeasureSeeded(context.Background(), XY, 0.05, 1, 4)
	b := d.MeasureSeeded(context.Background(), XY, 0.05, 2, 4)
	same := 0
	for p := range a {
		if a[p].Value == b[p].Value {
			same++
		}
	}
	if same == len(a) {
		t.Error("seeds 1 and 2 produced identical campaigns")
	}
}

// TestMeasureSeededMatchesTaskRand: pair p's noise is the first draws
// of TaskRand(seed, p), whatever pooled source serves them, and a
// fault-free 36-qubit campaign never outgrows the pooled source's
// seed-only window.
func TestMeasureSeededMatchesTaskRand(t *testing.T) {
	r := obs.New()
	ctx := obs.NewContext(context.Background(), r)
	d := NewDevice(chip.Square(6, 6), DefaultParams(), rand.New(rand.NewSource(4)))
	for _, workers := range []int{1, 3} {
		got := d.MeasureSeeded(ctx, XY, 0.05, 21, workers)
		for p, s := range got {
			want := d.MeasurePair(XY, s.I, s.J, 0.05, parallel.TaskRand(21, uint64(p)))
			if s != want {
				t.Fatalf("workers %d pair %d: %+v, want %+v", workers, p, s, want)
			}
		}
	}
	if got := r.Gauge("parallel/rng_materialized").Load(); got != 0 {
		t.Fatalf("rng_materialized = %d, want 0", got)
	}
	if got := r.Gauge("parallel/rng_scratch_reuse").Load(); got != 2*36*35/2 {
		t.Fatalf("rng_scratch_reuse = %d, want %d", got, 2*36*35/2)
	}
}
