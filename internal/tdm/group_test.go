package tdm

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/chip"
)

// decayXT is a deterministic crosstalk stub decaying with qubit-id
// distance (stand-in for the fitted ZZ model, in MHz).
func decayXT(i, j int) float64 {
	if i == j {
		return 0
	}
	return 0.6 * math.Exp(-math.Abs(float64(i-j))/2)
}

func groupSquare(t *testing.T, cfg Config) (*GateInfo, *Grouping) {
	t.Helper()
	gi := AnalyzeGates(chip.Square(3, 3))
	g, err := GroupChip(gi, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return gi, g
}

func TestGroupChipLegal(t *testing.T) {
	gi, g := groupSquare(t, DefaultConfig(decayXT))
	if err := g.Validate(gi); err != nil {
		t.Fatal(err)
	}
}

func TestGroupChipReducesLines(t *testing.T) {
	gi, g := groupSquare(t, DefaultConfig(decayXT))
	if g.NumZLines() >= gi.Dev.Count() {
		t.Errorf("no multiplexing achieved: %d lines for %d devices", g.NumZLines(), gi.Dev.Count())
	}
	// Table 2 anchor: the 9-qubit square chip lands near 7 Z lines.
	if g.NumZLines() > 12 {
		t.Errorf("square 3x3 uses %d Z lines; paper achieves ~7", g.NumZLines())
	}
}

func TestGroupLevelsRespectTheta(t *testing.T) {
	gi := AnalyzeGates(chip.Square(3, 3))
	idx := gi.AllParallelismIndices()
	cfg := DefaultConfig(decayXT)
	g, err := GroupChip(gi, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, grp := range g.Groups {
		if len(grp.Devices) <= 2 {
			continue
		}
		// Groups above size 2 may only contain low-parallelism devices.
		for _, d := range grp.Devices {
			if idx[d] > cfg.Theta {
				t.Errorf("high-parallelism device %s (idx %.1f) in a size-%d group",
					gi.Dev.Name(d), idx[d], len(grp.Devices))
			}
		}
	}
}

func TestThetaSweepMonotonicity(t *testing.T) {
	// Raising θ admits more devices to 1:4 DEMUXes, so the count of
	// 1:4 units must not decrease and Z lines must not increase.
	gi := AnalyzeGates(chip.Square(4, 4))
	prev14 := -1
	prevZ := 1 << 30
	for _, theta := range []float64{0, 2, 4, 8, 100} {
		cfg := DefaultConfig(decayXT)
		cfg.Theta = theta
		g, err := GroupChip(gi, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Validate(gi); err != nil {
			t.Fatalf("θ=%g: %v", theta, err)
		}
		n14 := g.LevelCounts()[Demux1to4]
		if n14 < prev14 {
			t.Errorf("θ=%g: 1:4 count dropped from %d to %d", theta, prev14, n14)
		}
		if g.NumZLines() > prevZ {
			t.Errorf("θ=%g: Z lines rose from %d to %d", theta, prevZ, g.NumZLines())
		}
		prev14 = n14
		prevZ = g.NumZLines()
	}
}

func TestGroupDevicesSubset(t *testing.T) {
	gi := AnalyzeGates(chip.Square(3, 3))
	subset := []int{0, 1, 2, 12, 13}
	g, err := GroupDevices(gi, subset, DefaultConfig(decayXT))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, grp := range g.Groups {
		for _, d := range grp.Devices {
			seen[d] = true
		}
	}
	if len(seen) != len(subset) {
		t.Errorf("grouping covers %d of %d devices", len(seen), len(subset))
	}
	for _, d := range subset {
		if !seen[d] {
			t.Errorf("device %d missing", d)
		}
	}
}

func TestGroupDevicesRejectsBadInput(t *testing.T) {
	gi := AnalyzeGates(chip.Square(2, 2))
	if _, err := GroupDevices(gi, []int{99}, DefaultConfig(nil)); err == nil {
		t.Error("out-of-range device accepted")
	}
}

func TestNilCrosstalkWorks(t *testing.T) {
	gi := AnalyzeGates(chip.Square(3, 3))
	g, err := GroupChip(gi, DefaultConfig(nil))
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(gi); err != nil {
		t.Error(err)
	}
}

func TestSparseQubitZMode(t *testing.T) {
	gi := AnalyzeGates(chip.Square(3, 3))
	cfg := DefaultConfig(decayXT)
	dense, err := GroupChip(gi, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.SparseQubitZ = true
	sparse, err := GroupChip(gi, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sparse.Validate(gi); err != nil {
		t.Fatal(err)
	}
	if sparse.NumZLines() > dense.NumZLines() {
		t.Errorf("sparse mode should not need more Z lines: %d vs %d",
			sparse.NumZLines(), dense.NumZLines())
	}
}

func TestLocalClusterGroupLegal(t *testing.T) {
	gi := AnalyzeGates(chip.Square(3, 3))
	for _, fanout := range []int{2, 4} {
		g, err := LocalClusterGroup(gi, fanout)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Validate(gi); err != nil {
			t.Errorf("fanout %d: %v", fanout, err)
		}
		for _, grp := range g.Groups {
			if len(grp.Devices) > fanout {
				t.Errorf("fanout %d exceeded: %d devices", fanout, len(grp.Devices))
			}
		}
	}
	if _, err := LocalClusterGroup(gi, 3); err == nil {
		t.Error("fanout 3 accepted")
	}
}

func TestYoutiaoBeatsLocalClusteringOnNonParallelism(t *testing.T) {
	// The YOUTIAO grouping must pack at least as well as local
	// clustering while preferring genuinely non-parallel devices. We
	// check the structural proxy: among same-group device pairs, the
	// fraction of gate pairs that could never coexist.
	gi := AnalyzeGates(chip.Square(4, 4))
	cfg := DefaultConfig(decayXT)
	youtiao, err := GroupChip(gi, cfg)
	if err != nil {
		t.Fatal(err)
	}
	local, err := LocalClusterGroup(gi, 4)
	if err != nil {
		t.Fatal(err)
	}
	f1, f2 := meanGroupNonParallel(gi, youtiao, cfg), meanGroupNonParallel(gi, local, cfg)
	if f1 < f2-0.05 {
		t.Errorf("YOUTIAO non-parallel fraction %.3f well below local clustering %.3f", f1, f2)
	}
	// Local clustering packs to the fan-out limit unconditionally, so
	// it may use fewer lines — but only by paying serialization, which
	// the schedule-level tests quantify. Here we only require that
	// YOUTIAO still multiplexes substantially.
	if youtiao.NumZLines() > gi.Dev.Count()*2/3 {
		t.Errorf("YOUTIAO barely multiplexes: %d lines for %d devices", youtiao.NumZLines(), gi.Dev.Count())
	}
}

// meanGroupNonParallel averages the non-parallel fraction of every grouped
// device against its co-members.
func meanGroupNonParallel(gi *GateInfo, g *Grouping, cfg Config) float64 {
	devs := make([]int, gi.Dev.Count())
	for i := range devs {
		devs[i] = i
	}
	noisy := newNoisyPairs(gi, devs)
	var sum float64
	var n int
	for _, grp := range g.Groups {
		if len(grp.Devices) < 2 {
			continue
		}
		for i, d := range grp.Devices {
			others := append(append([]int(nil), grp.Devices[:i]...), grp.Devices[i+1:]...)
			var pairs, np int
			for _, m := range others {
				p, n := gatePairs(gi, m, d, cfg, noisy)
				pairs, np = pairs+p, np+n
			}
			sum += nonParallelFraction(pairs, np)
			n++
		}
	}
	if n == 0 {
		return 1
	}
	return sum / float64(n)
}

func TestGroupingDeterministic(t *testing.T) {
	gi := AnalyzeGates(chip.Square(4, 4))
	g1, err := GroupChip(gi, DefaultConfig(decayXT))
	if err != nil {
		t.Fatal(err)
	}
	g2, err := GroupChip(gi, DefaultConfig(decayXT))
	if err != nil {
		t.Fatal(err)
	}
	if len(g1.Groups) != len(g2.Groups) {
		t.Fatalf("group counts differ: %d vs %d", len(g1.Groups), len(g2.Groups))
	}
	for i := range g1.Groups {
		if len(g1.Groups[i].Devices) != len(g2.Groups[i].Devices) {
			t.Fatalf("group %d sizes differ", i)
		}
		for j := range g1.Groups[i].Devices {
			if g1.Groups[i].Devices[j] != g2.Groups[i].Devices[j] {
				t.Fatalf("group %d member %d differs", i, j)
			}
		}
	}
}

func TestAllTopologiesGroupLegally(t *testing.T) {
	for _, c := range chip.Table2Chips() {
		gi := AnalyzeGates(c)
		g, err := GroupChip(gi, DefaultConfig(decayXT))
		if err != nil {
			t.Fatalf("%s: %v", c.Topology, err)
		}
		if err := g.Validate(gi); err != nil {
			t.Errorf("%s: %v", c.Topology, err)
		}
	}
}

func TestRandomChipsGroupLegally(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 15; trial++ {
		n := 4 + rng.Intn(12)
		qs := make([]chip.Qubit, n)
		for i := range qs {
			qs[i] = chip.Qubit{ID: i}
		}
		var pairs [][2]int
		seen := map[[2]int]bool{}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.3 && !seen[[2]int{i, j}] {
					pairs = append(pairs, [2]int{i, j})
					seen[[2]int{i, j}] = true
				}
			}
		}
		c, err := chip.New("rand", "custom", qs, pairs)
		if err != nil {
			t.Fatal(err)
		}
		gi := AnalyzeGates(c)
		g, err := GroupChip(gi, DefaultConfig(decayXT))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := g.Validate(gi); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}
