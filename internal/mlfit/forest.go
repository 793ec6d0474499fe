package mlfit

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
)

// ForestConfig controls random-forest training.
type ForestConfig struct {
	NumTrees int
	Tree     TreeConfig
	// Seed makes training deterministic.
	Seed int64
}

// DefaultForestConfig is a small forest suitable for the few-thousand-
// sample crosstalk calibration datasets used here.
func DefaultForestConfig() ForestConfig {
	return ForestConfig{
		NumTrees: 40,
		Tree:     TreeConfig{MaxDepth: 12, MinLeafSize: 3, MaxFeatures: 0},
		Seed:     1,
	}
}

// Forest is a bagged ensemble of regression trees.
type Forest struct {
	trees []*Tree
}

// FitForest trains a random forest on X, y with bootstrap sampling.
func FitForest(X [][]float64, y []float64, cfg ForestConfig) (*Forest, error) {
	if err := checkForest(X, y, cfg); err != nil {
		return nil, err
	}
	c := newGrowCtx(len(X[0]), len(X), cfg.Tree)
	c.load(X, y)
	f := &Forest{trees: make([]*Tree, 0, cfg.NumTrees)}
	c.growForest(cfg, allRows(len(X)), func() {
		f.trees = append(f.trees, &Tree{nodes: slices.Clone(c.nodes), nFeature: len(X[0])})
	})
	return f, nil
}

func checkForest(X [][]float64, y []float64, cfg ForestConfig) error {
	if cfg.NumTrees <= 0 {
		return fmt.Errorf("mlfit: NumTrees must be positive, got %d", cfg.NumTrees)
	}
	return checkTrainingSet(X, y)
}

// growForest grows the cfg.NumTrees bootstrap trees of a forest over
// the loaded rows listed in rows, one at a time, calling visit while
// each tree is in c.nodes. The RNG stream seeded by cfg.Seed — each
// tree's len(rows) draws, then that tree's feature shuffles — is the
// forest's identity: the same seed grows the same trees.
func (c *growCtx) growForest(cfg ForestConfig, rows []int32, visit func()) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	c.rng = rng
	draw := c.draw[:len(rows)]
	for t := 0; t < cfg.NumTrees; t++ {
		for i := range draw {
			draw[i] = rows[rng.Intn(len(rows))]
		}
		c.growTree(draw)
		visit()
	}
}

// Predict returns the forest's mean prediction for x.
func (f *Forest) Predict(x []float64) float64 {
	var s float64
	for _, t := range f.trees {
		s += t.Predict(x)
	}
	return s / float64(len(f.trees))
}

// PredictAll predicts every row of X.
func (f *Forest) PredictAll(X [][]float64) []float64 {
	out := make([]float64, len(X))
	for i, x := range X {
		out[i] = f.Predict(x)
	}
	return out
}

// NumTrees returns the ensemble size.
func (f *Forest) NumTrees() int { return len(f.trees) }

// Steps compiles a forest trained on one feature into a step function:
// cuts are the sorted distinct split thresholds (NaN thresholds, which
// send every input right, are left out), vals[i] is Predict at cuts[i]
// and vals[len(cuts)] is Predict past every cut (computed at NaN, which
// goes right at every split). Then for any x,
//
//	Predict([]float64{x}) == vals[sort.SearchFloat64s(cuts, x)]
//
// bit for bit: every x in (cuts[i-1], cuts[i]] takes the same branch as
// cuts[i] at every split. Steps panics on a forest over more than one
// feature.
func (f *Forest) Steps() (cuts, vals []float64) {
	for _, t := range f.trees {
		if t.nFeature != 1 {
			panic(fmt.Sprintf("mlfit: Steps needs a one-feature forest, got %d features", t.nFeature))
		}
		for _, n := range t.nodes {
			if n.feature >= 0 && !math.IsNaN(n.threshold) {
				cuts = append(cuts, n.threshold)
			}
		}
	}
	slices.Sort(cuts)
	cuts = slices.Compact(cuts)
	vals = make([]float64, len(cuts)+1)
	x := make([]float64, 1)
	for i, c := range cuts {
		x[0] = c
		vals[i] = f.Predict(x)
	}
	x[0] = math.NaN()
	vals[len(cuts)] = f.Predict(x)
	return cuts, vals
}

// KFoldMSE estimates generalization error by k-fold cross-validation:
// it returns the mean held-out MSE over the k folds. The fold split is
// deterministic in seed.
//
// No fold's forest is kept: each tree is grown into one reused arena,
// its held-out predictions are added to a per-row sum in tree order,
// and the sums are divided by NumTrees at the end — the same
// arithmetic, in the same order, as Forest.Predict on the forest
// FitForest would return for the fold, so the MSE is bit-identical.
func KFoldMSE(X [][]float64, y []float64, k int, cfg ForestConfig, seed int64) (float64, error) {
	n := len(X)
	if k < 2 || k > n {
		return 0, fmt.Errorf("mlfit: k=%d invalid for %d samples", k, n)
	}
	if err := checkForest(X, y, cfg); err != nil {
		return 0, err
	}
	// The rows are loaded (and sorted) once, in fold-split order, so a
	// fold's training rows keep their materialized order: the forest
	// grown over them is FitForest's on the fold.
	perm := rand.New(rand.NewSource(seed)).Perm(n)
	pX, pY := make([][]float64, n), make([]float64, n)
	for i, p := range perm {
		pX[i], pY[i] = X[p], y[p]
	}
	c := newGrowCtx(len(X[0]), n, cfg.Tree)
	c.load(pX, pY)
	var total float64
	rows := make([]int32, 0, n)
	teX := make([][]float64, 0, (n+k-1)/k)
	teY := make([]float64, 0, cap(teX))
	pred := make([]float64, 0, cap(teX))
	for fold := 0; fold < k; fold++ {
		rows, teX, teY = rows[:0], teX[:0], teY[:0]
		for i := range pX {
			if i%k == fold {
				teX = append(teX, pX[i])
				teY = append(teY, pY[i])
			} else {
				rows = append(rows, int32(i))
			}
		}
		pred = pred[:len(teX)]
		clear(pred)
		c.growForest(cfg, rows, func() {
			for i, x := range teX {
				pred[i] += predict(c.nodes, x)
			}
		})
		for i := range pred {
			pred[i] /= float64(cfg.NumTrees)
		}
		total += MSE(pred, teY)
	}
	return total / float64(k), nil
}
