package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"time"

	youtiao "repro"
)

// rung is one chip size of the cold ladder.
type rung struct {
	workload, chipName, topology string
	qubits                       int
	// metricName names the rung's median design time in the report.
	metricName string
}

var rungs = map[string]rung{
	"cold-36":  {"cold-36", "square-36", "square", 36, "design_36q_s"},
	"cold-144": {"cold-144", "heavy-hexagon-144", "heavy-hexagon", 144, "design_144q_s"},
	"cold-400": {"cold-400", "square-400", "square", 400, "design_400q_s"},
}

// coldSeeds is how many design seeds a rung cycles through.
const coldSeeds = 3

// recordSeeds is how many design seeds, 1..recordSeeds, expected/cold.json
// holds for every rung: enough for runs with seeds up to 30.
const recordSeeds = 32

// designCheck is what a cold design is checked against: a digest of the
// design snapshot and the timing-stripped manifest, and the headline
// wiring counts.
type designCheck struct {
	Digest     string `json:"digest"`
	CoaxBefore int    `json:"coaxBefore"`
	CoaxAfter  int    `json:"coaxAfter"`
	ZLines     int    `json:"zLines"`
}

// expected holds the recorded checks, by chip name and design seed.
//
//go:embed expected/cold.json
var expectedJSON []byte

func checkOf(res *youtiao.DesignResult, opts youtiao.Options) (designCheck, error) {
	snap, err := json.Marshal(res.Snapshot())
	if err != nil {
		return designCheck{}, err
	}
	m := youtiao.NewManifest(res, opts).StripTimings()
	// The environment block names the machine and the worker count, which
	// by the determinism contract never change the design.
	m.Env = youtiao.ManifestEnv{}
	man, err := json.Marshal(m)
	if err != nil {
		return designCheck{}, err
	}
	h := sha256.New()
	h.Write(snap)
	h.Write([]byte{'\n'})
	h.Write(man)
	return designCheck{
		Digest:     hex.EncodeToString(h.Sum(nil)),
		CoaxBefore: res.Baseline.CoaxLines,
		CoaxAfter:  res.Youtiao.CoaxLines,
		ZLines:     res.Youtiao.ZLines,
	}, nil
}

// cold runs cold library designs of one chip, each on a fresh cache, one
// at a time: every stage executes and serve and the store tiers are
// bypassed.
type cold struct {
	r        rung
	seed     int64
	chip     *youtiao.Chip
	expected map[string]map[string]designCheck
	// seen holds each design seed's first check in this run; every later
	// design of that seed must match it.
	seen map[int64]designCheck
	ref  *reference
}

func newCold(r rung, seed int64, ref *reference) (*cold, error) {
	var exp map[string]map[string]designCheck
	if err := json.Unmarshal(expectedJSON, &exp); err != nil {
		return nil, fmt.Errorf("expected/cold.json: %w", err)
	}
	return &cold{r: r, seed: seed, expected: exp, seen: map[int64]designCheck{}, ref: ref}, nil
}

// setup builds the rung's chip and brings the process to a steady state
// with one cold design of a 16-qubit chip, so the first measured design
// does not pay for page faults and heap growth.
func (c *cold) setup() error {
	ch, err := youtiao.NewChip(c.r.topology, c.r.qubits)
	if err != nil {
		return err
	}
	c.chip = ch
	small, err := youtiao.NewChip("square", 16)
	if err != nil {
		return err
	}
	_, err = youtiao.NewSharedCache(youtiao.CacheConfig{}).Designer(small).RedesignCtx(context.Background(), youtiao.Options{Seed: c.seed})
	return err
}

func (c *cold) close() error { return nil }

// designSeed is the i-th design's seed: the run's seed and the next two,
// in turn.
func (c *cold) designSeed(i int) int64 { return c.seed + int64(i%coldSeeds) }

// measure designs until the next design would likely end past seconds,
// but at least one design per seed, so the untraced and traced halves of a
// traced run time the same design seeds.
func (c *cold) measure(seconds float64, rec *recorder) (*phase, error) {
	ph := &phase{layer: map[string]float64{}}
	var hits, misses int
	var cpuMs, rawMs []float64
	start := time.Now()
	before := c.ref.pass()
	for i := 0; ; i++ {
		if i >= coldSeeds && time.Since(start).Seconds()+median(ph.latMs)/1e3 > seconds {
			break
		}
		seed := c.designSeed(i)
		opts := youtiao.Options{Seed: seed}
		cache := youtiao.NewSharedCache(youtiao.CacheConfig{})
		rec.install(cache)
		span := rec.begin("design", int64(i), -1)
		if rec != nil {
			rec.current.Store(int64(span))
		}
		t0, cpu0 := time.Now(), processCPU()
		res, err := cache.Designer(c.chip).RedesignCtx(context.Background(), opts)
		elapsed, cpu := time.Since(t0), processCPU()-cpu0
		rec.end(span)
		after := c.ref.pass()
		scaled := scale(cpu, before, after)
		before = after
		ph.attempted++
		if err != nil {
			ph.failed++
			fmt.Fprintf(os.Stderr, "design %s seed %d: %v\n", c.r.chipName, seed, err)
			continue
		}
		rep := cache.StageReport()
		hits += rep.Hits
		misses += rep.Misses
		if err := c.check(res, opts); err != nil {
			ph.failed++
			fmt.Fprintf(os.Stderr, "design %s seed %d: %v\n", c.r.chipName, seed, err)
			continue
		}
		ph.latMs = append(ph.latMs, float64(elapsed.Nanoseconds())/1e6)
		cpuMs = append(cpuMs, scaled)
		rawMs = append(rawMs, float64(cpu.Nanoseconds())/1e6)
		// Every design runs on a fresh cache, so every one is new to the
		// service that answered it.
		ph.firstSeen = append(ph.firstSeen, true)
	}
	ph.cpuMs = median(cpuMs)
	ph.rawCPUMs = median(rawMs)
	ph.refPassMs = median(c.ref.passMs)
	ph.layer["store.hits"] = float64(hits)
	ph.layer["store.misses"] = float64(misses)
	if hits+misses > 0 {
		ph.layer["store.hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	d := summarize(ph.latMs)
	ph.notes = append(ph.notes, fmt.Sprintf("%s (%d qubits): %d designs over design seeds %d..%d; %s %.4f s",
		c.r.chipName, c.chip.NumQubits(), d.N, c.seed, c.seed+coldSeeds-1, c.r.metricName, d.P50/1e3))
	return ph, nil
}

// check compares a design with the recorded one for its seed, when there
// is one, and with the run's first design of that seed.
func (c *cold) check(res *youtiao.DesignResult, opts youtiao.Options) error {
	got, err := checkOf(res, opts)
	if err != nil {
		return err
	}
	if want, ok := c.expected[c.r.chipName][fmt.Sprint(opts.Seed)]; ok && got != want {
		return fmt.Errorf("design differs from the recorded one: got %+v, want %+v", got, want)
	}
	if first, ok := c.seen[opts.Seed]; ok && got != first {
		return fmt.Errorf("design differs from this run's first design of the seed: got %+v, want %+v", got, first)
	}
	c.seen[opts.Seed] = got
	return nil
}

// recordExpected designs every rung at design seeds 1..recordSeeds with
// Workers 1 and 2, fails unless the two agree, and writes the checks to
// path.
func recordExpected(path string) error {
	out := map[string]map[string]designCheck{}
	for _, name := range []string{"cold-36", "cold-144", "cold-400"} {
		r := rungs[name]
		ch, err := youtiao.NewChip(r.topology, r.qubits)
		if err != nil {
			return err
		}
		out[r.chipName] = map[string]designCheck{}
		for s := int64(1); s <= recordSeeds; s++ {
			var checks [2]designCheck
			for w := 1; w <= 2; w++ {
				opts := youtiao.Options{Seed: s, Workers: w}
				res, err := youtiao.NewSharedCache(youtiao.CacheConfig{}).Designer(ch).RedesignCtx(context.Background(), opts)
				if err != nil {
					return fmt.Errorf("%s seed %d workers %d: %w", r.chipName, s, w, err)
				}
				if checks[w-1], err = checkOf(res, opts); err != nil {
					return err
				}
			}
			if checks[0] != checks[1] {
				return fmt.Errorf("%s seed %d: Workers 1 and 2 disagree: %+v vs %+v", r.chipName, s, checks[0], checks[1])
			}
			out[r.chipName][fmt.Sprint(s)] = checks[0]
			fmt.Fprintf(os.Stderr, "%s seed %d: %+v\n", r.chipName, s, checks[0])
		}
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
