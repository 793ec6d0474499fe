package mlfit

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// equivDataset is a seeded regression set of n rows. levels > 0 draws
// every feature from that many discrete values, so most rows tie.
func equivDataset(seed int64, n, nf, levels int) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		X[i] = make([]float64, nf)
		for f := range X[i] {
			if levels > 0 {
				X[i][f] = 0.37 * float64(rng.Intn(levels))
			} else {
				X[i][f] = rng.Float64() * 4
			}
		}
		y[i] = math.Exp(-X[i][0]) + 0.3*rng.NormFloat64()
	}
	return X, y
}

// equivCases are the datasets on which the presorted grower must match
// the legacy grower exactly: one feature (ties or not), or several
// features with distinct values. Within a run of tied values the two
// growers sum the prefix sums in different orders (the legacy one in
// pdqsort's order), so the sums can differ in the last bit. That only
// matters when two candidate splits tie in exact arithmetic, which on
// one feature takes two different partitions with equal gain. Several
// tied features do tie often — two features can cut a small node into
// the same two halves — see TestPresortedMultiFeatureTiesSamePartitions.
var equivCases = []struct {
	name            string
	n, nf, levels   int
	cfg             TreeConfig
	seeds, numTrees int
}{
	{"ties-1d", 300, 1, 7, TreeConfig{MaxDepth: 12, MinLeafSize: 3}, 20, 12},
	{"ties-1d-unlimited", 120, 1, 5, TreeConfig{}, 10, 5},
	{"distinct-1d", 200, 1, 0, TreeConfig{MaxDepth: 8, MinLeafSize: 4}, 5, 8},
	{"multi-maxfeatures", 250, 4, 0, TreeConfig{MaxDepth: 10, MinLeafSize: 2, MaxFeatures: 2}, 5, 10},
	{"multi-maxfeatures-1", 150, 3, 0, TreeConfig{MaxFeatures: 1}, 3, 6},
	{"multi-unlimited", 120, 2, 0, TreeConfig{}, 3, 5},
	{"depth-1-ties", 100, 1, 4, TreeConfig{MaxDepth: 1}, 3, 5},
	{"depth-1-multi", 100, 3, 0, TreeConfig{MaxDepth: 1}, 3, 5},
	{"min-leaf-half", 64, 1, 0, TreeConfig{MinLeafSize: 32}, 3, 5},
	{"min-leaf-over-half", 64, 1, 0, TreeConfig{MinLeafSize: 33}, 3, 5},
	{"all-tied", 50, 1, 1, TreeConfig{}, 2, 4},
	{"two-rows", 2, 1, 0, TreeConfig{}, 3, 4},
	{"one-row", 1, 2, 0, TreeConfig{MaxFeatures: 1}, 2, 3},
}

// TestPresortedTreeMatchesLegacy grows single trees (FitTree) with the
// presorted grower and the frozen sort-per-node grower and requires
// identical nodes, bit for bit, including the RNG stream consumed by
// feature subsampling.
func TestPresortedTreeMatchesLegacy(t *testing.T) {
	for _, tc := range equivCases {
		for seed := int64(1); seed <= int64(tc.seeds); seed++ {
			X, y := equivDataset(seed, tc.n, tc.nf, tc.levels)
			got, err := FitTree(X, y, tc.cfg, rand.New(rand.NewSource(seed)))
			if err != nil {
				t.Fatal(err)
			}
			want := legacyFitTree(X, y, tc.cfg, rand.New(rand.NewSource(seed)))
			assertSameTree(t, fmt.Sprintf("%s seed %d", tc.name, seed), got, want)
		}
	}
}

// TestPresortedForestMatchesLegacy does the same for whole bootstrap
// forests, where counting-sort layout replaces the per-tree sort.
func TestPresortedForestMatchesLegacy(t *testing.T) {
	for _, tc := range equivCases {
		for seed := int64(1); seed <= int64(tc.seeds); seed++ {
			X, y := equivDataset(seed, tc.n, tc.nf, tc.levels)
			cfg := ForestConfig{NumTrees: tc.numTrees, Tree: tc.cfg, Seed: seed}
			got, err := FitForest(X, y, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := legacyFitForest(X, y, cfg)
			for i, tree := range got.trees {
				assertSameTree(t, fmt.Sprintf("%s seed %d tree %d", tc.name, seed, i), tree, want[i])
			}
		}
	}
}

// TestPresortedMultiFeatureTiesSamePartitions covers several tied
// features, where the legacy grower's choice between two features
// that cut a node into the same two halves (possibly with the sides
// swapped) hung on the last bit of its pdqsort-ordered sums. The trees
// must still cut the rows they were grown on the same way: the same
// node count, and the same prediction, bit for bit, for every in-bag
// row. Each forest has one tree, whose bootstrap draw is the first n
// draws of its seed's stream. Every feature is searched: with
// MaxFeatures, a split whose sides swapped also reorders the feature
// shuffles of the nodes below it, so from there on the two trees are
// unrelated.
func TestPresortedMultiFeatureTiesSamePartitions(t *testing.T) {
	cfg := ForestConfig{NumTrees: 1, Tree: TreeConfig{MaxDepth: 10, MinLeafSize: 2}}
	relabelled := 0
	for seed := int64(1); seed <= 20; seed++ {
		X, y := equivDataset(seed, 250, 4, 9)
		cfg.Seed = seed
		got, err := FitForest(X, y, cfg)
		if err != nil {
			t.Fatal(err)
		}
		g, w := got.trees[0], legacyFitForest(X, y, cfg)[0]
		if a, b := len(g.nodes), len(legacyPreorder(w, nil)); a != b {
			t.Fatalf("seed %d: %d nodes, legacy grower %d", seed, a, b)
		}
		rng := rand.New(rand.NewSource(seed))
		for range X {
			x := X[rng.Intn(len(X))]
			if a, b := g.Predict(x), legacyPredict(w, x); math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("seed %d: in-bag row %v predicted %v, legacy grower %v", seed, x, a, b)
			}
		}
		if !slices.Equal(g.nodes, legacyPreorder(w, nil)) {
			relabelled++
		}
	}
	t.Logf("%d of 20 trees name some split differently from the legacy grower", relabelled)
}

// TestKFoldStreamingMatchesMaterialized checks that the streaming CV
// (trees never kept) returns exactly the mean MSE of materialized
// per-fold forests.
func TestKFoldStreamingMatchesMaterialized(t *testing.T) {
	for _, tc := range equivCases {
		if tc.n < 5 {
			continue
		}
		X, y := equivDataset(7, tc.n, tc.nf, tc.levels)
		cfg := ForestConfig{NumTrees: tc.numTrees, Tree: tc.cfg, Seed: 3}
		for _, k := range []int{2, 5} {
			got, err := KFoldMSE(X, y, k, cfg, 11)
			if err != nil {
				t.Fatal(err)
			}
			perm := rand.New(rand.NewSource(11)).Perm(len(X))
			var total float64
			for fold := 0; fold < k; fold++ {
				var trX, teX [][]float64
				var trY, teY []float64
				for i, p := range perm {
					if i%k == fold {
						teX, teY = append(teX, X[p]), append(teY, y[p])
					} else {
						trX, trY = append(trX, X[p]), append(trY, y[p])
					}
				}
				f, err := FitForest(trX, trY, cfg)
				if err != nil {
					t.Fatal(err)
				}
				total += MSE(f.PredictAll(teX), teY)
			}
			if want := total / float64(k); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%s k=%d: streaming MSE %v, materialized %v", tc.name, k, got, want)
			}
		}
	}
}

// TestStepsMatchPredict checks the compiled step function against
// Forest.Predict at every cut, between cuts, beyond both ends and at
// NaN.
func TestStepsMatchPredict(t *testing.T) {
	for _, levels := range []int{0, 6} {
		X, y := equivDataset(5, 300, 1, levels)
		f, err := FitForest(X, y, ForestConfig{NumTrees: 12, Tree: TreeConfig{MaxDepth: 10, MinLeafSize: 3}, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		cuts, vals := f.Steps()
		if len(vals) != len(cuts)+1 || !sort.Float64sAreSorted(cuts) {
			t.Fatalf("levels %d: %d cuts, %d vals", levels, len(cuts), len(vals))
		}
		probes := []float64{math.Inf(-1), math.Inf(1), math.NaN(), -1, 0, 100}
		for i, c := range cuts {
			if i > 0 && cuts[i-1] == c {
				t.Fatalf("levels %d: duplicate cut %v", levels, c)
			}
			probes = append(probes, c, math.Nextafter(c, math.Inf(-1)), math.Nextafter(c, math.Inf(1)))
			if i+1 < len(cuts) {
				probes = append(probes, (c+cuts[i+1])/2)
			}
		}
		for _, x := range probes {
			want := f.Predict([]float64{x})
			if got := vals[sort.SearchFloat64s(cuts, x)]; math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("levels %d: step(%v) = %v, Predict %v", levels, x, got, want)
			}
		}
	}
}

func TestStepsPanicsOnMultiFeatureForest(t *testing.T) {
	X, y := equivDataset(1, 20, 2, 0)
	f, err := FitForest(X, y, ForestConfig{NumTrees: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("Steps accepted a two-feature forest")
		}
	}()
	f.Steps()
}
