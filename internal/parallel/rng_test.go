package parallel

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/obs"
)

// edgeSeeds are the seeds where math/rand's normalisation branches:
// zero and the multiples of 2³¹−1 fall back to 89482311, negatives wrap.
var edgeSeeds = []int64{
	0, 1, -1, int32max, -int32max, int32max - 1, int32max + 1, 2 * int32max,
	math.MinInt64, math.MaxInt64, math.MinInt64 + 1, seedFallback, -seedFallback,
}

// compareDraws makes n calls on got and want, choosing each call's
// method from mix, and fails at the first value that differs. Every
// method consumes at least one source value, so n ≥ 700 always runs
// both sources past the 273-draw window.
func compareDraws(t testing.TB, got, want *rand.Rand, n int, mix uint64) {
	t.Helper()
	for k := 0; k < n; k++ {
		op := (mix >> (3 * uint(k%21))) & 7
		var g, w uint64
		switch op {
		case 0, 6:
			g, w = got.Uint64(), want.Uint64()
		case 1:
			g, w = uint64(got.Int63()), uint64(want.Int63())
		case 2, 7:
			g, w = math.Float64bits(got.Float64()), math.Float64bits(want.Float64())
		case 3:
			g, w = math.Float64bits(got.NormFloat64()), math.Float64bits(want.NormFloat64())
		case 4:
			bound := 1 + k%1000
			g, w = uint64(got.Intn(bound)), uint64(want.Intn(bound))
		case 5:
			gp, wp := got.Perm(1+k%9), want.Perm(1+k%9)
			for i := range gp {
				if gp[i] != wp[i] {
					t.Fatalf("call %d (Perm): element %d is %d, want %d", k, i, gp[i], wp[i])
				}
			}
		}
		if g != w {
			t.Fatalf("call %d (op %d): got %#x, want %#x", k, op, g, w)
		}
	}
}

func newSeeded(seed int64) (*seededSource, *rand.Rand) {
	s := &seededSource{}
	s.Seed(seed)
	return s, rand.New(s)
}

// The raw stream must match rand.NewSource value for value, inside the
// window, across the boundary, and long after materialisation.
func TestSeededSourceEdgeSeeds(t *testing.T) {
	for _, seed := range edgeSeeds {
		s, _ := newSeeded(seed)
		ref := rand.NewSource(seed).(rand.Source64)
		for k := 0; k < 3*rngLen; k++ {
			if g, w := s.Uint64(), ref.Uint64(); g != w {
				t.Fatalf("seed %d draw %d: got %#x, want %#x", seed, k, g, w)
			}
		}
		compareDraws(t, rand.New(s), rand.New(ref), 700, 0x2c9e1f3b7a6d5048)
	}
}

// TaskSeed streams, the only seeds the pipeline hands Rands, must
// match through every rand.Rand method.
func TestSeededSourceTaskStreams(t *testing.T) {
	for i := 0; i < 1000; i++ {
		seed := TaskSeed(int64(i/10), uint64(i))
		_, got := newSeeded(seed)
		mix := uint64(TaskSeed(7, uint64(i)))
		compareDraws(t, got, rand.New(rand.NewSource(seed)), 700, mix)
	}
}

// Reseeding a part-used source rewinds it fully, whether the previous
// stream stopped inside the window or after materialising.
func TestSeededSourceReseed(t *testing.T) {
	s, got := newSeeded(11)
	for _, used := range []int{0, 5, rngTap, rngTap + 1, 2000, 100} {
		for k := 0; k < used; k++ {
			s.Uint64()
		}
		seed := TaskSeed(3, uint64(used))
		s.Seed(seed)
		compareDraws(t, got, rand.New(rand.NewSource(seed)), 700, uint64(seed))
	}
}

// A Rands slot yields TaskRand's stream, task after task.
func TestRandsTaskMatchesTaskRand(t *testing.T) {
	rs := NewRands(context.Background(), 2)
	for task := uint64(0); task < 50; task++ {
		w := int(task % 2)
		compareDraws(t, rs.Task(w, 5, task), TaskRand(5, task), 20+int(task)*15, task*0x9e3779b97f4a7c15)
	}
}

// Only a stream that outgrows the window pays for a full source, and
// the gauge counts exactly those streams.
func TestRandsMaterializedGauge(t *testing.T) {
	r := obs.New()
	rs := NewRands(obs.NewContext(context.Background(), r), 1)
	for task := uint64(0); task < 10; task++ {
		rng := rs.Task(0, 1, task)
		for k := 0; k < rngTap; k++ {
			rng.Uint64()
		}
	}
	if got := r.Gauge("parallel/rng_materialized").Load(); got != 0 {
		t.Fatalf("rng_materialized = %d after streams of %d draws, want 0", got, rngTap)
	}
	rng := rs.Task(0, 1, 99)
	for k := 0; k < 300; k++ {
		rng.Uint64()
	}
	if got := r.Gauge("parallel/rng_materialized").Load(); got != 1 {
		t.Fatalf("rng_materialized = %d after one 300-draw stream, want 1", got)
	}
	if got := r.Gauge("parallel/rng_scratch_reuse").Load(); got != 11 {
		t.Fatalf("rng_scratch_reuse = %d, want 11", got)
	}
}

// Reseeding and drawing inside the window allocates nothing, and after
// a slot's first materialisation neither does drawing past it.
func TestRandsZeroAllocs(t *testing.T) {
	rs := NewRands(context.Background(), 1)
	var task uint64
	run := func(draws int) float64 {
		return testing.AllocsPerRun(50, func() {
			rng := rs.Task(0, 1, task)
			task++
			for k := 0; k < draws; k++ {
				rng.Uint64()
			}
		})
	}
	if a := run(8); a != 0 {
		t.Fatalf("windowed stream: %.1f allocs/op, want 0", a)
	}
	run(rngTap + 1)
	if a := run(rngTap + 50); a != 0 {
		t.Fatalf("materialised stream: %.1f allocs/op, want 0", a)
	}
}

// FuzzSeededSource compares the source with rand.NewSource over any
// seed, stream length and method mix.
func FuzzSeededSource(f *testing.F) {
	for _, seed := range edgeSeeds {
		f.Add(seed, uint16(700), uint64(0x0123456789abcdef))
	}
	f.Add(int64(42), uint16(272), uint64(0))
	f.Add(int64(42), uint16(274), ^uint64(0))
	f.Fuzz(func(t *testing.T, seed int64, draws uint16, mix uint64) {
		n := int(draws % 2048)
		_, got := newSeeded(seed)
		compareDraws(t, got, rand.New(rand.NewSource(seed)), n, mix)
	})
}
