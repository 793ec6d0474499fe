package chip

import (
	"math"
	"sync"
	"testing"

	"repro/internal/geom"
)

func TestNewValidation(t *testing.T) {
	qs := []Qubit{{ID: 0, Pos: geom.Pt(0, 0)}, {ID: 1, Pos: geom.Pt(1, 0)}}
	if _, err := New("x", "square", qs, [][2]int{{0, 2}}); err == nil {
		t.Error("out-of-range coupler accepted")
	}
	if _, err := New("x", "square", qs, [][2]int{{0, 0}}); err == nil {
		t.Error("self-coupler accepted")
	}
	if _, err := New("x", "square", qs, [][2]int{{0, 1}, {1, 0}}); err == nil {
		t.Error("duplicate coupler accepted")
	}
	c, err := New("x", "square", qs, [][2]int{{1, 0}})
	if err != nil {
		t.Fatalf("valid chip rejected: %v", err)
	}
	if c.Couplers[0].A != 0 || c.Couplers[0].B != 1 {
		t.Errorf("coupler endpoints not normalized: %+v", c.Couplers[0])
	}
	if want := geom.Pt(0.5, 0); c.Couplers[0].Pos != want {
		t.Errorf("coupler position: got %v, want %v", c.Couplers[0].Pos, want)
	}
}

func TestSquareCounts(t *testing.T) {
	for _, tc := range []struct {
		w, h, qubits, couplers int
	}{
		{1, 1, 1, 0},
		{2, 2, 4, 4},
		{3, 3, 9, 12},
		{6, 6, 36, 60},
		{8, 8, 64, 112},
	} {
		c := Square(tc.w, tc.h)
		if c.NumQubits() != tc.qubits {
			t.Errorf("Square(%d,%d): %d qubits, want %d", tc.w, tc.h, c.NumQubits(), tc.qubits)
		}
		if c.NumCouplers() != tc.couplers {
			t.Errorf("Square(%d,%d): %d couplers, want %d", tc.w, tc.h, c.NumCouplers(), tc.couplers)
		}
	}
}

func TestSquareDegrees(t *testing.T) {
	c := Square(3, 3)
	wantDeg := map[int]int{0: 2, 1: 3, 4: 4} // corner, edge, centre
	for q, want := range wantDeg {
		if got := c.Degree(q); got != want {
			t.Errorf("degree(q%d) = %d, want %d", q, got, want)
		}
	}
}

func TestTable2ChipSizes(t *testing.T) {
	chips := Table2Chips()
	wantQubits := []int{9, 16, 21, 21, 18}
	wantTopo := []string{"square", "hexagon", "heavy-square", "heavy-hexagon", "low-density"}
	if len(chips) != 5 {
		t.Fatalf("got %d chips, want 5", len(chips))
	}
	for i, c := range chips {
		if c.NumQubits() != wantQubits[i] {
			t.Errorf("%s: %d qubits, want %d", wantTopo[i], c.NumQubits(), wantQubits[i])
		}
		if c.Topology != wantTopo[i] {
			t.Errorf("chip %d topology %q, want %q", i, c.Topology, wantTopo[i])
		}
	}
	// Calibration anchors: the Google baseline Z-line counts (#qubits +
	// #couplers) of Table 2.
	wantDevices := []int{21, 34, 45, 43, 36}
	for i, c := range chips {
		if got := c.NumQubits() + c.NumCouplers(); got != wantDevices[i] {
			t.Errorf("%s: %d devices, want %d", wantTopo[i], got, wantDevices[i])
		}
	}
}

func TestHexagonMaxDegree(t *testing.T) {
	c := Hexagon(4, 4)
	for q := 0; q < c.NumQubits(); q++ {
		if d := c.Degree(q); d > 3 {
			t.Errorf("hexagon qubit %d has degree %d > 3", q, d)
		}
	}
}

func TestHeavyLatticesBridgeDegree(t *testing.T) {
	for _, c := range []*Chip{HeavySquare(3, 3), HeavyHexagon(2, 5)} {
		// Bridge qubits (added after the node grid) must have degree 2.
		nodes := 0
		switch c.Topology {
		case "heavy-square":
			nodes = 9
		case "heavy-hexagon":
			nodes = 10
		}
		for q := nodes; q < c.NumQubits(); q++ {
			if d := c.Degree(q); d != 2 {
				t.Errorf("%s bridge qubit %d degree %d, want 2", c.Topology, q, d)
			}
		}
	}
}

func TestLowDensityIsRing(t *testing.T) {
	c := LowDensity(9, 2)
	if c.NumQubits() != 18 || c.NumCouplers() != 18 {
		t.Fatalf("got %d qubits %d couplers, want 18/18", c.NumQubits(), c.NumCouplers())
	}
	for q := 0; q < c.NumQubits(); q++ {
		if d := c.Degree(q); d != 2 {
			t.Errorf("ring qubit %d degree %d, want 2", q, d)
		}
	}
	if comps := c.Graph().Components(); len(comps) != 1 {
		t.Errorf("ring should be connected, got %d components", len(comps))
	}
}

func TestLowDensityOddRowsOpenChain(t *testing.T) {
	c := LowDensity(5, 3)
	if c.NumCouplers() != c.NumQubits()-1 {
		t.Errorf("odd-row low-density should be an open chain: %d couplers for %d qubits",
			c.NumCouplers(), c.NumQubits())
	}
}

func TestAllTopologiesConnected(t *testing.T) {
	for _, c := range Table2Chips() {
		if comps := c.Graph().Components(); len(comps) != 1 {
			t.Errorf("%s: %d components, want 1", c.Name, len(comps))
		}
	}
}

func TestCouplerBetween(t *testing.T) {
	c := Square(2, 2)
	if _, ok := c.CouplerBetween(0, 1); !ok {
		t.Error("coupler 0-1 not found")
	}
	if _, ok := c.CouplerBetween(1, 0); !ok {
		t.Error("CouplerBetween should normalize order")
	}
	if _, ok := c.CouplerBetween(0, 3); ok {
		t.Error("diagonal coupler should not exist")
	}
}

func TestPhysicalDistance(t *testing.T) {
	c := Square(3, 3)
	if d := c.PhysicalDistance(0, 1); math.Abs(d-DefaultPitch) > 1e-9 {
		t.Errorf("adjacent distance: got %v", d)
	}
	if d := c.PhysicalDistance(0, 8); math.Abs(d-2*math.Sqrt2*DefaultPitch) > 1e-9 {
		t.Errorf("diagonal distance: got %v", d)
	}
}

func TestBounds(t *testing.T) {
	c := Square(3, 2)
	b := c.Bounds()
	if b.Min != geom.Pt(0, 0) || b.Max != geom.Pt(2*DefaultPitch, DefaultPitch) {
		t.Errorf("bounds: %+v", b)
	}
}

func TestTopDistance(t *testing.T) {
	c := Square(3, 3)
	if got := c.TopDistance(0, 4); got != 4 { // diagonal: 2 paths x length 2
		t.Errorf("TopDistance(0,4) = %v, want 4", got)
	}
	for i := 0; i < c.NumQubits(); i++ {
		for j := 0; j < c.NumQubits(); j++ {
			if got, want := c.TopDistance(i, j), c.Graph().MultiPathDistance(i, j); got != want {
				t.Errorf("TopDistance(%d,%d) = %v, want MultiPathDistance %v", i, j, got, want)
			}
		}
	}
}

func TestTopDistanceDisconnected(t *testing.T) {
	qs := []Qubit{{ID: 0, Pos: geom.Pt(0, 0)}, {ID: 1, Pos: geom.Pt(1, 0)}, {ID: 2, Pos: geom.Pt(2, 0)}}
	c, err := New("disc", "square", qs, [][2]int{{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.TopDistance(0, 1); got != 1 {
		t.Errorf("connected pair: TopDistance(0,1) = %v, want 1", got)
	}
	for _, p := range [][2]int{{0, 2}, {2, 0}, {1, 2}} {
		if got := c.TopDistance(p[0], p[1]); got != 3 {
			t.Errorf("disconnected pair: TopDistance(%d,%d) = %v, want the qubit count 3", p[0], p[1], got)
		}
	}
}

// Clones share the prototype's d_top matrix: once the prototype has
// computed it, a clone's lookups allocate nothing and read the same
// backing array.
func TestTopDistanceSharedByClones(t *testing.T) {
	proto := Square(4, 4)
	proto.TopDistance(0, 1)
	clone := proto.Clone()
	if allocs := testing.AllocsPerRun(100, func() { clone.TopDistance(0, 15) }); allocs != 0 {
		t.Errorf("clone TopDistance allocates %v per call after the prototype filled its matrix", allocs)
	}
	if &clone.topDist()[0][0] != &proto.topDist()[0][0] {
		t.Error("clone built its own d_top matrix instead of sharing the prototype's")
	}
}

// Clones of one prototype may ask for d_top first from several
// goroutines at once (concurrent builds of one chip); they all get the
// one matrix.
func TestTopDistanceConcurrentFirstUse(t *testing.T) {
	proto := Square(5, 5)
	var wg sync.WaitGroup
	got := make([]float64, 8)
	for g := range got {
		clone := proto.Clone()
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = clone.TopDistance(0, 24)
		}()
	}
	wg.Wait()
	want := proto.Graph().MultiPathDistance(0, 24)
	for g, v := range got {
		if v != want {
			t.Errorf("goroutine %d: TopDistance(0,24) = %v, want %v", g, v, want)
		}
	}
}

func TestTwoQubitGates(t *testing.T) {
	c := Square(2, 2)
	gs := c.TwoQubitGates()
	if len(gs) != c.NumCouplers() {
		t.Fatalf("got %d gates, want %d", len(gs), c.NumCouplers())
	}
	for _, g := range gs {
		if g.Q1 >= g.Q2 {
			t.Errorf("gate qubits not ordered: %+v", g)
		}
		cp := c.Couplers[g.Coupler]
		if cp.A != g.Q1 || cp.B != g.Q2 {
			t.Errorf("gate/coupler mismatch: %+v vs %+v", g, cp)
		}
	}
}

func TestByTopology(t *testing.T) {
	for _, name := range []string{"square", "hexagon", "heavy-square", "heavy-hexagon", "low-density"} {
		c, err := ByTopology(name, 30)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if c.NumQubits() < 30 {
			t.Errorf("%s: %d qubits, want >= 30", name, c.NumQubits())
		}
		if c.NumQubits() > 120 {
			t.Errorf("%s: %d qubits, far above request", name, c.NumQubits())
		}
	}
	if _, err := ByTopology("möbius", 10); err == nil {
		t.Error("unknown topology accepted")
	}
}

func TestBuilderPanicsOnBadSize(t *testing.T) {
	for name, f := range map[string]func(){
		"square":        func() { Square(0, 3) },
		"hexagon":       func() { Hexagon(3, 0) },
		"heavy-square":  func() { HeavySquare(-1, 2) },
		"heavy-hexagon": func() { HeavyHexagon(0, 0) },
		"low-density":   func() { LowDensity(0, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s builder should panic on invalid size", name)
				}
			}()
			f()
		}()
	}
}
