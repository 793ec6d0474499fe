// Package crosstalk implements the paper's crosstalk characterization
// model (§4.1): it fits the relationship between the equivalent distance
//
//	d_equiv(i,j) = w_phy · d_phy(i,j) + w_top · d_top(i,j)
//
// and measured crosstalk with a random-forest regressor, selecting the
// weight pair (w_phy, w_top) that minimizes 5-fold cross-validated MSE.
// The fitted model then predicts crosstalk for any qubit pair of the
// training chip — or of a different chip with the same qubit type,
// topology family and process (Figure 12's generality study).
package crosstalk

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/chip"
	"repro/internal/mlfit"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/xmon"
)

// FitConfig controls the characterization fit.
type FitConfig struct {
	// WeightGrid is the set of candidate values for each of w_phy and
	// w_top; the search evaluates the full cross product (excluding the
	// all-zero pair).
	WeightGrid []float64
	// Folds is the cross-validation fold count (the paper uses 5).
	Folds  int
	Forest mlfit.ForestConfig
	// Workers bounds the goroutines evaluating weight candidates
	// (<= 0: runtime.NumCPU(), 1: sequential). Every candidate's CV is
	// seeded independently, so the selected model is identical for any
	// worker count.
	Workers int
	// TrimOutlierFraction drops the largest-valued fraction of the
	// samples before fitting (0: keep all; must be < 1). Calibration
	// campaigns on faulty hardware produce heavy-tailed outlier
	// readings that would otherwise dominate the regression; trimming
	// is deterministic — samples sort by (value, index) — so the fitted
	// model stays reproducible.
	TrimOutlierFraction float64
}

// DefaultFitConfig mirrors the paper's setup: 5-fold CV and a coarse
// weight grid over [0, 1].
func DefaultFitConfig() FitConfig {
	return FitConfig{
		WeightGrid: []float64{0, 0.1, 0.25, 0.5, 0.75, 1.0},
		Folds:      5,
		Forest:     mlfit.DefaultForestConfig(),
	}
}

// Model is a fitted crosstalk characterization model. A Model is safe
// for concurrent prediction (the FDM region grouping predicts from many
// goroutines) and must not be copied after first use.
type Model struct {
	Kind    xmon.CrosstalkKind
	Weights chip.EquivWeights
	CVError float64 // cross-validated MSE at the selected weights
	forest  *mlfit.Forest

	// The forest compiled into a step function over d_equiv (see
	// mlfit.Forest.Steps), built on first prediction: one binary search
	// replaces a walk of every tree, and every value is a Predict result,
	// so predictions are bit-identical to the forest's.
	stepsOnce  sync.Once
	cuts, vals []float64
}

// Fit trains the characterization model from calibration samples taken
// on the given chip. It returns the model with the best (w_phy, w_top)
// under k-fold CV, matching the paper's procedure.
func Fit(c *chip.Chip, samples []xmon.Sample, cfg FitConfig) (*Model, error) {
	return FitCtx(context.Background(), c, samples, cfg)
}

// FitCtx is Fit with cooperative cancellation: the grid search checks
// ctx between weight candidates and returns ctx.Err() once it fires.
func FitCtx(ctx context.Context, c *chip.Chip, samples []xmon.Sample, cfg FitConfig) (*Model, error) {
	if len(samples) == 0 {
		return nil, fmt.Errorf("crosstalk: no samples")
	}
	if cfg.Folds < 2 {
		return nil, fmt.Errorf("crosstalk: need at least 2 folds, got %d", cfg.Folds)
	}
	trimmed := len(samples)
	samples, err := trimOutliers(samples, cfg.TrimOutlierFraction)
	if err != nil {
		return nil, err
	}
	trimmed -= len(samples)
	kind := samples[0].Kind
	for _, s := range samples {
		if s.Kind != kind {
			return nil, fmt.Errorf("crosstalk: mixed sample kinds %v and %v", kind, s.Kind)
		}
	}

	y, phys, topo, err := features(c, samples)
	if err != nil {
		return nil, err
	}

	// The grid search is the hot loop of characterization: every
	// (w_phy, w_top) candidate runs an independent k-fold CV, so the
	// candidates fan out over the worker pool. Selection scans the
	// results in grid order with a strict '<', reproducing the
	// sequential first-best tie-break for any worker count.
	type candidate struct {
		wp, wt float64
	}
	var cands []candidate
	for _, wp := range cfg.WeightGrid {
		for _, wt := range cfg.WeightGrid {
			if wp == 0 && wt == 0 {
				continue
			}
			cands = append(cands, candidate{wp, wt})
		}
	}
	// crosstalk/fits, fit_candidates and trimmed_samples are
	// deterministic: the grid is fixed by FitConfig and trimming is a
	// pure function of the sample set.
	if r := obs.FromContext(ctx); r != nil {
		r.Counter("crosstalk/fits").Inc()
		r.Counter("crosstalk/fit_candidates").Add(int64(len(cands)))
		r.Counter("crosstalk/trimmed_samples").Add(int64(trimmed))
	}
	mses := make([]float64, len(cands))
	err = parallel.ForEachCtx(ctx, cfg.Workers, len(cands), func(ci int) error {
		cand := cands[ci]
		X := featureMatrix(phys, topo, cand.wp, cand.wt)
		mse, err := mlfit.KFoldMSE(X, y, cfg.Folds, cfg.Forest, cfg.Forest.Seed)
		if err != nil {
			return fmt.Errorf("crosstalk: CV at (%.2f,%.2f): %w", cand.wp, cand.wt, err)
		}
		mses[ci] = mse
		return nil
	})
	if err != nil {
		return nil, err
	}
	best := &Model{Kind: kind, CVError: math.Inf(1)}
	for ci, cand := range cands {
		if mses[ci] < best.CVError {
			best.CVError = mses[ci]
			best.Weights = chip.EquivWeights{WPhy: cand.wp, WTop: cand.wt}
		}
	}

	// Refit on the full dataset at the winning weights.
	X := featureMatrix(phys, topo, best.Weights.WPhy, best.Weights.WTop)
	forest, err := mlfit.FitForest(X, y, cfg.Forest)
	if err != nil {
		return nil, fmt.Errorf("crosstalk: final fit: %w", err)
	}
	best.forest = forest
	return best, nil
}

// features returns each sample's measured value and the two distances
// the model weighs: d_phy and d_top between its qubits.
func features(c *chip.Chip, samples []xmon.Sample) (y, phys, topo []float64, err error) {
	y = make([]float64, len(samples))
	phys = make([]float64, len(samples))
	topo = make([]float64, len(samples))
	for i, s := range samples {
		if s.I < 0 || s.J < 0 || s.I >= c.NumQubits() || s.J >= c.NumQubits() {
			return nil, nil, nil, fmt.Errorf("crosstalk: sample %d pair (%d,%d) out of range", i, s.I, s.J)
		}
		y[i] = s.Value
		phys[i] = c.PhysicalDistance(s.I, s.J)
		topo[i] = c.TopDistance(s.I, s.J)
	}
	return y, phys, topo, nil
}

// featureMatrix builds the single-feature design matrix
// X[i] = [wp*phys[i] + wt*topo[i]] over one flat backing array — two
// allocations total instead of one per row, which matters because the
// grid search rebuilds the matrix for every weight candidate.
func featureMatrix(phys, topo []float64, wp, wt float64) [][]float64 {
	flat := make([]float64, len(phys))
	X := make([][]float64, len(phys))
	for i := range X {
		flat[i] = wp*phys[i] + wt*topo[i]
		X[i] = flat[i : i+1 : i+1]
	}
	return X
}

// trimOutliers drops the ceil(fraction*n) largest-valued samples,
// preserving the original order of the survivors. Ordering is by
// (value, original index), so the trimmed set is a deterministic
// function of the input regardless of worker count or map iteration.
func trimOutliers(samples []xmon.Sample, fraction float64) ([]xmon.Sample, error) {
	if fraction == 0 {
		return samples, nil
	}
	if fraction < 0 || fraction >= 1 {
		return nil, fmt.Errorf("crosstalk: TrimOutlierFraction %v outside [0,1)", fraction)
	}
	drop := int(math.Ceil(fraction * float64(len(samples))))
	if drop >= len(samples) {
		drop = len(samples) - 1
	}
	if drop <= 0 {
		return samples, nil
	}
	order := make([]int, len(samples))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ia, ib := order[a], order[b]
		if samples[ia].Value != samples[ib].Value {
			return samples[ia].Value > samples[ib].Value
		}
		return ia < ib
	})
	cut := make(map[int]bool, drop)
	for _, i := range order[:drop] {
		cut[i] = true
	}
	kept := make([]xmon.Sample, 0, len(samples)-drop)
	for i, s := range samples {
		if !cut[i] {
			kept = append(kept, s)
		}
	}
	return kept, nil
}

// PredictDistance returns the model's crosstalk prediction at a raw
// equivalent distance.
func (m *Model) PredictDistance(dEquiv float64) float64 {
	m.stepsOnce.Do(func() { m.cuts, m.vals = m.forest.Steps() })
	return m.vals[sort.SearchFloat64s(m.cuts, dEquiv)]
}

// Predictor binds a model to a chip, caching the model's prediction for
// every ordered qubit pair, so pairwise predictions are table lookups.
// Binding a model to a different chip than it was trained on is exactly
// the Figure 12 transfer experiment.
type Predictor struct {
	Model *Model
	chip  *chip.Chip
	pairs []float64 // pairs[i*n+j]: the prediction for qubits i != j
}

// On binds the model to a chip. It predicts every ordered pair up front:
// the FDM allocation and TDM grouping ask for the same pairs many times
// over, on every redesign that reuses this predictor.
func (m *Model) On(c *chip.Chip) *Predictor {
	p := &Predictor{Model: m, chip: c}
	if m.forest == nil {
		return p // only a decoded model can lack a forest; it predicts nothing
	}
	n := c.NumQubits()
	p.pairs = make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				p.pairs[i*n+j] = m.PredictDistance(p.EquivDistance(i, j))
			}
		}
	}
	return p
}

// EquivDistance returns d_equiv(i,j) under the model's fitted weights.
func (p *Predictor) EquivDistance(i, j int) float64 {
	if i == j {
		return 0
	}
	return p.Model.Weights.WPhy*p.chip.PhysicalDistance(i, j) + p.Model.Weights.WTop*p.chip.TopDistance(i, j)
}

// Predict returns the predicted crosstalk between qubits i and j.
func (p *Predictor) Predict(i, j int) float64 {
	if i == j {
		return 0
	}
	return p.pairs[i*p.chip.NumQubits()+j]
}

// Matrix returns the full predicted pairwise crosstalk matrix. The
// model is symmetric in (i,j) — d_phy and d_top both are — so each
// unordered pair is predicted once and mirrored; the diagonal is zero
// by definition. Rows share one flat n*n backing array.
func (p *Predictor) Matrix() [][]float64 {
	n := p.chip.NumQubits()
	flat := make([]float64, n*n)
	m := make([][]float64, n)
	for i := 0; i < n; i++ {
		m[i] = flat[i*n : (i+1)*n : (i+1)*n]
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := p.Predict(i, j)
			m[i][j] = v
			m[j][i] = v
		}
	}
	return m
}

// PredictedValues returns the model's prediction for every unordered
// qubit pair of the bound chip, the raw material for the Figure 12
// noise-distribution comparison.
func (p *Predictor) PredictedValues() []float64 {
	n := p.chip.NumQubits()
	vals := make([]float64, 0, n*(n-1)/2)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			vals = append(vals, p.Predict(i, j))
		}
	}
	return vals
}
