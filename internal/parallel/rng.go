package parallel

import (
	"context"
	"math/rand"

	"repro/internal/obs"
)

// Rands is a pool of per-worker reseedable RNGs for ForEachWorker-style
// loops. Seeding a math/rand source runs 1,841 modular multiplications
// to fill its 607-word register, which costs far more than the few
// values a calibration sample draws. A Rands slot instead wraps a
// seededSource: Seed only normalises the seed, and each of the first
// 273 draws computes the two register words it reads directly from the
// seed. A stream that draws more than that materialises into a full
// per-worker math/rand source, reseeded and advanced to the same
// position. Either way the values are exactly those of
// rand.New(rand.NewSource(seed)) — TaskRand's stream — and after each
// worker's first materialisation the pool allocates nothing per task.
//
// Constraints, both consequences of reuse:
//
//   - slot w must only be used by worker w of a single ForEachWorker
//     family call at a time (workers run their tasks sequentially, so
//     this is race-free by construction);
//   - tasks must not call Rand.Read: Read keeps carry-over state in
//     the *rand.Rand wrapper that reseeding the source does not clear.
//     Every other method (Intn, Float64, NormFloat64, Perm, Shuffle,
//     ...) is a pure function of the source stream.
type Rands struct {
	srcs  []seededSource
	rands []*rand.Rand
	// reseeds is the parallel/rng_scratch_reuse gauge: task reseeds
	// served by the pool, each one TaskRand allocation and seeding loop
	// avoided. Nil when the pool's context carries no registry.
	reseeds *obs.Gauge
}

// NewRands builds a pool of w generators, one per worker id in [0, w).
// Size it with Resolve(workers, n) so every id that can appear is
// covered. The pool resolves its gauges once, from the registry ctx
// carries: parallel/rng_pooled counts generators allocated into pools,
// parallel/rng_scratch_reuse the reseeds they serve and
// parallel/rng_materialized the streams that drew past the seed-only
// window and so paid a full math/rand seeding after all. They are
// gauges, not counters: the first two scale with the resolved worker
// count, which the deterministic counter section must not see.
func NewRands(ctx context.Context, w int) *Rands {
	r := obs.FromContext(ctx)
	rs := &Rands{
		srcs:    make([]seededSource, w),
		rands:   make([]*rand.Rand, w),
		reseeds: r.Gauge("parallel/rng_scratch_reuse"),
	}
	materialized := r.Gauge("parallel/rng_materialized")
	for i := range rs.rands {
		rs.srcs[i].Seed(0)
		rs.srcs[i].materialized = materialized
		rs.rands[i] = rand.New(&rs.srcs[i])
	}
	r.Gauge("parallel/rng_pooled").Add(int64(w))
	return rs
}

// Task reseeds worker's generator onto the (master, task) stream of
// TaskSeed and returns it: the same values TaskRand(master, task)
// would produce, without the per-task allocation. The generator is
// only valid until the worker's next Task call.
func (rs *Rands) Task(worker int, master int64, task uint64) *rand.Rand {
	return rs.Seeded(worker, TaskSeed(master, task))
}

// Seeded reseeds worker's generator to exactly seed (no TaskSeed
// split) and returns it, for callers that pre-split their streams.
func (rs *Rands) Seeded(worker int, seed int64) *rand.Rand {
	rs.srcs[worker].Seed(seed)
	rs.reseeds.Add(1)
	return rs.rands[worker]
}

// The parameters of math/rand's generator (src/math/rand/rng.go): an
// additive lagged Fibonacci register of rngLen words with tap rngTap,
// seeded through the Lehmer generator x ← 48271·x mod (2³¹−1).
const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1
	lehmerA  = 48271
	// seedFallback replaces a seed that normalises to zero.
	seedFallback = 89482311
)

// seedPow[i] holds 48271^k mod (2³¹−1) for the three Lehmer steps
// k = 21+3i, 22+3i, 23+3i that math/rand's Seed combines into register
// word i (it discards steps 1..20). Step k from seed x₀ is then one
// multiplication, x₀·48271^k mod (2³¹−1), instead of k of them.
var seedPow = func() (p [rngLen][3]uint64) {
	x := uint64(1)
	for k := 0; k < 20; k++ {
		x = x * lehmerA % int32max
	}
	for i := range p {
		for j := range p[i] {
			x = x * lehmerA % int32max
			p[i][j] = x
		}
	}
	return p
}()

// seededSource is a rand.Source64 whose stream equals
// rand.NewSource(seed)'s for every seed, with an O(1) Seed.
//
// math/rand's Uint64 moves a tap and a feed index down the register
// from rngLen−1 and rngLen−rngTap−1 and overwrites the feed word with
// the sum it returns. For the first rngTap draws neither index reaches
// a word written earlier, so draw t is word(rngLen−rngTap−1−t) +
// word(rngLen−1−t) of the freshly seeded register, and the register is
// never needed. Draw rngTap reads the word draw 0 wrote: from there on
// the stream comes from full, a real math/rand source reseeded and
// advanced past the window.
type seededSource struct {
	x0    uint64 // normalised seed, in [1, 2³¹−2]
	drawn int    // draws taken; past rngTap once full serves the stream
	full  rand.Source64
	// materialized is the owning pool's parallel/rng_materialized
	// gauge (nil when unobserved).
	materialized *obs.Gauge
}

// Seed normalises seed exactly as math/rand's Seed does and rewinds the
// stream; it does no other work.
func (s *seededSource) Seed(seed int64) {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = seedFallback
	}
	s.x0 = uint64(seed)
	s.drawn = 0
}

// word returns register word i as math/rand's Seed(x0) writes it.
func (s *seededSource) word(i int) int64 {
	p := &seedPow[i]
	return int64(s.x0*p[0]%int32max)<<40 ^ int64(s.x0*p[1]%int32max)<<20 ^
		int64(s.x0*p[2]%int32max) ^ rngCooked[i]
}

// Uint64 returns the next value of the stream.
func (s *seededSource) Uint64() uint64 {
	if t := s.drawn; t < rngTap {
		s.drawn++
		return uint64(s.word(rngLen-rngTap-1-t) + s.word(rngLen-1-t))
	}
	if s.drawn == rngTap {
		s.materialize()
	}
	return s.full.Uint64()
}

// Int63 returns the next value of the stream with its top bit cleared,
// as math/rand's source does.
func (s *seededSource) Int63() int64 {
	return int64(s.Uint64() & rngMask)
}

// materialize moves the stream onto full once the window is used up:
// full is reseeded with the same seed and advanced by the rngTap draws
// already served. It allocates full on the slot's first use only.
func (s *seededSource) materialize() {
	if s.full == nil {
		s.full = rand.NewSource(int64(s.x0)).(rand.Source64)
	} else {
		s.full.Seed(int64(s.x0))
	}
	for i := 0; i < rngTap; i++ {
		s.full.Uint64()
	}
	s.drawn++
	s.materialized.Add(1)
}
