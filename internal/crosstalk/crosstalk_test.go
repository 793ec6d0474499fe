package crosstalk

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/chip"
	"repro/internal/geom"
	"repro/internal/mlfit"
	"repro/internal/xmon"
)

func fastFitConfig() FitConfig {
	return FitConfig{
		WeightGrid: []float64{0, 0.5, 1.0},
		Folds:      5,
		Forest: mlfit.ForestConfig{
			NumTrees: 8,
			Tree:     mlfit.TreeConfig{MaxDepth: 8, MinLeafSize: 3},
			Seed:     1,
		},
	}
}

func fitOn(t *testing.T, c *chip.Chip, seed int64) (*Model, *xmon.Device) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	dev := xmon.NewDevice(c, xmon.DefaultParams(), rng)
	samples := dev.Measure(xmon.XY, 0.05, rng)
	m, err := Fit(c, samples, fastFitConfig())
	if err != nil {
		t.Fatal(err)
	}
	return m, dev
}

func TestFitValidation(t *testing.T) {
	c := chip.Square(3, 3)
	if _, err := Fit(c, nil, fastFitConfig()); err == nil {
		t.Error("no samples accepted")
	}
	cfg := fastFitConfig()
	cfg.Folds = 1
	if _, err := Fit(c, []xmon.Sample{{I: 0, J: 1, Value: 1}}, cfg); err == nil {
		t.Error("1 fold accepted")
	}
	mixed := []xmon.Sample{
		{I: 0, J: 1, Kind: xmon.XY, Value: 1},
		{I: 0, J: 2, Kind: xmon.ZZ, Value: 1},
	}
	if _, err := Fit(c, mixed, fastFitConfig()); err == nil {
		t.Error("mixed sample kinds accepted")
	}
	bad := []xmon.Sample{{I: 0, J: 99, Value: 1}}
	if _, err := Fit(c, bad, fastFitConfig()); err == nil {
		t.Error("out-of-range pair accepted")
	}
}

func TestFitSelectsNonZeroWeights(t *testing.T) {
	m, _ := fitOn(t, chip.Square(4, 4), 1)
	if m.Weights.WPhy == 0 && m.Weights.WTop == 0 {
		t.Error("fit selected the degenerate all-zero weights")
	}
	if m.CVError <= 0 {
		t.Errorf("CV error should be positive with measurement noise, got %v", m.CVError)
	}
}

func TestPredictorReproducesDecay(t *testing.T) {
	c := chip.Square(4, 4)
	m, dev := fitOn(t, c, 1)
	p := m.On(c)
	// Averaged over rows, the prediction must decay with distance just
	// like the underlying crosstalk.
	var near, far float64
	for r := 0; r < 4; r++ {
		near += p.Predict(4*r, 4*r+1)
		far += p.Predict(4*r, 4*r+3)
	}
	if near <= far {
		t.Errorf("prediction should decay with distance: near %.3g far %.3g", near, far)
	}
	// And correlate with the truth on adjacent pairs.
	var truthSum, predSum float64
	for _, e := range c.Graph().Edges() {
		truthSum += dev.Crosstalk(xmon.XY, e[0], e[1])
		predSum += p.Predict(e[0], e[1])
	}
	ratio := predSum / truthSum
	if ratio < 0.5 || ratio > 2 {
		t.Errorf("aggregate prediction off by %vx", ratio)
	}
}

func TestPredictorDiagonalZero(t *testing.T) {
	c := chip.Square(3, 3)
	m, _ := fitOn(t, c, 2)
	p := m.On(c)
	for q := 0; q < c.NumQubits(); q++ {
		if p.Predict(q, q) != 0 {
			t.Errorf("self-prediction not zero for q%d", q)
		}
		if p.EquivDistance(q, q) != 0 {
			t.Errorf("self equivalent distance not zero for q%d", q)
		}
	}
}

// On a chip with two coupler components, the device's latent coupling,
// the predictor's d_equiv and the fit's d_top feature all see a
// cross-component pair at the chip's one d_top value: the qubit count.
func TestDisconnectedPairsShareTopDistance(t *testing.T) {
	var qs []chip.Qubit
	for i := 0; i < 6; i++ {
		qs = append(qs, chip.Qubit{ID: i, Pos: geom.Pt(float64(i), 0), T1: chip.DefaultT1})
	}
	c, err := chip.New("two-chains", "low-density", qs, [][2]int{{0, 1}, {1, 2}, {3, 4}, {4, 5}})
	if err != nil {
		t.Fatal(err)
	}
	const i, j = 1, 4
	top := c.TopDistance(i, j)
	if top != float64(c.NumQubits()) {
		t.Fatalf("TopDistance(%d,%d) = %v, want the qubit count %d", i, j, top, c.NumQubits())
	}
	phys := c.PhysicalDistance(i, j)

	params := xmon.DefaultParams()
	params.DisorderSigma = 0 // unit disorder: Coupling is the bare decay law
	dev := xmon.NewDevice(c, params, rand.New(rand.NewSource(1)))
	want := params.AmplitudeXY * math.Exp(-phys/params.PhysDecay) * math.Pow(top, -params.TopDecay)
	if got := dev.Coupling(xmon.XY, i, j); got != want {
		t.Errorf("Coupling(XY,%d,%d) = %v, want %v", i, j, got, want)
	}

	w := chip.EquivWeights{WPhy: 0.5, WTop: 0.25}
	if got, want := (&Model{Weights: w}).On(c).EquivDistance(i, j), w.WPhy*phys+w.WTop*top; got != want {
		t.Errorf("EquivDistance(%d,%d) = %v, want %v", i, j, got, want)
	}

	samples := dev.Measure(xmon.XY, 0, rand.New(rand.NewSource(2)))
	_, _, topo, err := features(c, samples)
	if err != nil {
		t.Fatal(err)
	}
	for k, s := range samples {
		if topo[k] != c.TopDistance(s.I, s.J) {
			t.Errorf("fit feature d_top(%d,%d) = %v, want %v", s.I, s.J, topo[k], c.TopDistance(s.I, s.J))
		}
		if s.I == i && s.J == j && topo[k] != top {
			t.Errorf("fit feature d_top(%d,%d) = %v, want the qubit count %v", i, j, topo[k], top)
		}
	}
}

func TestPredictorSymmetric(t *testing.T) {
	c := chip.Square(3, 3)
	m, _ := fitOn(t, c, 3)
	p := m.On(c)
	for i := 0; i < c.NumQubits(); i++ {
		for j := i + 1; j < c.NumQubits(); j++ {
			if p.Predict(i, j) != p.Predict(j, i) {
				t.Fatalf("prediction asymmetric at (%d,%d)", i, j)
			}
		}
	}
}

func TestMatrixMatchesPredict(t *testing.T) {
	c := chip.Square(3, 3)
	m, _ := fitOn(t, c, 4)
	p := m.On(c)
	mat := p.Matrix()
	for i := range mat {
		for j := range mat[i] {
			if mat[i][j] != p.Predict(i, j) {
				t.Fatalf("matrix mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestPredictedValuesCount(t *testing.T) {
	c := chip.Square(3, 3)
	m, _ := fitOn(t, c, 5)
	vals := m.On(c).PredictedValues()
	n := c.NumQubits()
	if len(vals) != n*(n-1)/2 {
		t.Fatalf("got %d values, want %d", len(vals), n*(n-1)/2)
	}
	for i, v := range vals {
		if v < 0 {
			t.Errorf("negative predicted crosstalk at %d", i)
		}
	}
}

func TestModelTransfer(t *testing.T) {
	// A model trained on a 4×4 chip must bind to and predict on a 5×5
	// chip of the same family, with decay preserved.
	m, _ := fitOn(t, chip.Square(4, 4), 1)
	other := chip.Square(5, 5)
	p := m.On(other)
	var near, far float64
	for r := 0; r < 5; r++ {
		near += p.Predict(5*r, 5*r+1)
		far += p.Predict(5*r, 5*r+4)
	}
	if near <= far {
		t.Errorf("transferred prediction should decay: near %.3g far %.3g", near, far)
	}
}

func TestFitDeterministic(t *testing.T) {
	c := chip.Square(4, 4)
	m1, _ := fitOn(t, c, 7)
	m2, _ := fitOn(t, c, 7)
	if m1.Weights != m2.Weights {
		t.Errorf("weights differ across identical runs: %+v vs %+v", m1.Weights, m2.Weights)
	}
	if m1.CVError != m2.CVError {
		t.Errorf("CV errors differ: %v vs %v", m1.CVError, m2.CVError)
	}
	p1, p2 := m1.On(c), m2.On(c)
	for i := 0; i < 5; i++ {
		if p1.Predict(0, i+1) != p2.Predict(0, i+1) {
			t.Fatal("predictions differ across identical runs")
		}
	}
}

func TestDefaultFitConfig(t *testing.T) {
	cfg := DefaultFitConfig()
	if cfg.Folds != 5 {
		t.Errorf("paper uses 5-fold CV, got %d", cfg.Folds)
	}
	if len(cfg.WeightGrid) == 0 {
		t.Error("empty weight grid")
	}
}
