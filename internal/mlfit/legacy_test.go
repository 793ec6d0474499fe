package mlfit

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// legacyNode, legacyGrow and legacyForest are a frozen copy of the
// grower that sorted every node's rows per feature (sort.Slice), kept
// as the reference the presorted grower must reproduce node for node.
type legacyNode struct {
	feature     int
	threshold   float64
	value       float64
	left, right *legacyNode
}

type legacyCtx struct {
	X     [][]float64
	y     []float64
	cfg   TreeConfig
	rng   *rand.Rand
	order []int
}

func legacyMean(y []float64, idx []int) float64 {
	var s float64
	for _, i := range idx {
		s += y[i]
	}
	return s / float64(len(idx))
}

func legacySSE(y []float64, idx []int) float64 {
	m := legacyMean(y, idx)
	var s float64
	for _, i := range idx {
		d := y[i] - m
		s += d * d
	}
	return s
}

func legacyFitTree(X [][]float64, y []float64, cfg TreeConfig, rng *rand.Rand) *legacyNode {
	c := &legacyCtx{X: X, y: y, cfg: cfg.normalized(), rng: rng, order: make([]int, len(X))}
	idx := make([]int, len(X))
	for i := range idx {
		idx[i] = i
	}
	return c.grow(idx, 0)
}

func (c *legacyCtx) grow(idx []int, depth int) *legacyNode {
	X, y, cfg := c.X, c.y, c.cfg
	val := legacyMean(y, idx)
	if depth >= cfg.MaxDepth || len(idx) < 2*cfg.MinLeafSize {
		return &legacyNode{feature: -1, value: val}
	}
	nf := len(X[0])
	features := make([]int, nf)
	for i := range features {
		features[i] = i
	}
	if cfg.MaxFeatures > 0 && cfg.MaxFeatures < nf && c.rng != nil {
		c.rng.Shuffle(nf, func(i, j int) { features[i], features[j] = features[j], features[i] })
		features = features[:cfg.MaxFeatures]
	}
	bestGain, bestFeature, bestThreshold := 0.0, -1, 0.0
	parentSSE := legacySSE(y, idx)
	order := c.order[:len(idx)]
	for _, f := range features {
		copy(order, idx)
		sort.Slice(order, func(a, b int) bool { return X[order[a]][f] < X[order[b]][f] })
		var sumL, sumSqL, sumR, sumSqR float64
		for _, i := range order {
			sumR += y[i]
			sumSqR += y[i] * y[i]
		}
		for k := 0; k < len(order)-1; k++ {
			v := y[order[k]]
			sumL += v
			sumSqL += v * v
			sumR -= v
			sumSqR -= v * v
			if X[order[k]][f] == X[order[k+1]][f] {
				continue
			}
			nl, nr := k+1, len(order)-k-1
			if nl < cfg.MinLeafSize || nr < cfg.MinLeafSize {
				continue
			}
			sseL := sumSqL - sumL*sumL/float64(nl)
			sseR := sumSqR - sumR*sumR/float64(nr)
			gain := parentSSE - sseL - sseR
			if gain > bestGain {
				bestGain, bestFeature = gain, f
				bestThreshold = (X[order[k]][f] + X[order[k+1]][f]) / 2
			}
		}
	}
	if bestFeature < 0 || bestGain <= 1e-15 {
		return &legacyNode{feature: -1, value: val}
	}
	var left, right []int
	for _, i := range idx {
		if X[i][bestFeature] <= bestThreshold {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) == 0 || len(right) == 0 {
		return &legacyNode{feature: -1, value: val}
	}
	return &legacyNode{
		feature: bestFeature, threshold: bestThreshold, value: val,
		left:  c.grow(left, depth+1),
		right: c.grow(right, depth+1),
	}
}

func legacyFitForest(X [][]float64, y []float64, cfg ForestConfig) []*legacyNode {
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := len(X)
	bx := make([][]float64, n)
	by := make([]float64, n)
	var trees []*legacyNode
	for t := 0; t < cfg.NumTrees; t++ {
		for i := 0; i < n; i++ {
			k := rng.Intn(n)
			bx[i], by[i] = X[k], y[k]
		}
		trees = append(trees, legacyFitTree(bx, by, cfg.Tree, rng))
	}
	return trees
}

func legacyPredict(n *legacyNode, x []float64) float64 {
	for n.feature >= 0 {
		if x[n.feature] <= n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.value
}

// legacyPreorder flattens a legacy tree into the preorder node layout
// of Tree (right-child indices included).
func legacyPreorder(n *legacyNode, out []treeNode) []treeNode {
	self := len(out)
	out = append(out, treeNode{feature: int32(n.feature), threshold: n.threshold, value: n.value})
	if n.feature >= 0 {
		out = legacyPreorder(n.left, out)
		out[self].right = int32(len(out))
		out = legacyPreorder(n.right, out)
	}
	return out
}

// assertSameTree fails unless got has exactly want's nodes, with
// thresholds and values equal bit for bit.
func assertSameTree(t *testing.T, label string, got *Tree, want *legacyNode) {
	t.Helper()
	w := legacyPreorder(want, nil)
	if len(got.nodes) != len(w) {
		t.Fatalf("%s: %d nodes, legacy grower %d", label, len(got.nodes), len(w))
	}
	for i, g := range got.nodes {
		if g.feature != w[i].feature || g.right != w[i].right ||
			math.Float64bits(g.threshold) != math.Float64bits(w[i].threshold) ||
			math.Float64bits(g.value) != math.Float64bits(w[i].value) {
			t.Fatalf("%s: node %d = %+v, legacy grower %+v", label, i, g, w[i])
		}
	}
}
