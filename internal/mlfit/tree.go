// Package mlfit is the from-scratch machine-learning substrate the
// crosstalk characterization model is built on: CART regression trees,
// bagged random-forest regression, k-fold cross-validation, mean squared
// error, and distribution comparison via Jensen–Shannon divergence.
//
// Only the features the paper's pipeline needs are implemented, but they
// are implemented completely: variance-reduction splits, bootstrap
// sampling, per-tree feature subsampling and deterministic seeding.
package mlfit

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
)

// treeNode is one node of a regression tree. A tree stores its nodes in
// preorder, so a split node's left child is the node right after it and
// only the right child needs an index. Leaves have feature == -1.
type treeNode struct {
	feature   int32   // split feature index, -1 for leaf
	right     int32   // index of the right child (split nodes only)
	threshold float64 // go left when x[feature] <= threshold
	value     float64 // mean of the node's targets; the leaf prediction
}

// Tree is a CART regression tree.
type Tree struct {
	nodes    []treeNode // preorder; nodes[0] is the root
	nFeature int
}

// TreeConfig controls tree growth.
type TreeConfig struct {
	MaxDepth    int // maximum depth; 0 means unlimited
	MinLeafSize int // minimum samples in a leaf; 0 means 1
	// MaxFeatures is the number of features considered per split;
	// 0 means all features.
	MaxFeatures int
}

func (cfg TreeConfig) normalized() TreeConfig {
	if cfg.MaxDepth <= 0 {
		cfg.MaxDepth = 1 << 30
	}
	if cfg.MinLeafSize <= 0 {
		cfg.MinLeafSize = 1
	}
	return cfg
}

// FitTree grows a regression tree on rows X (features) and targets y.
// rng is only used when cfg.MaxFeatures restricts the split search; a
// nil rng is allowed in that case the full feature set is used.
func FitTree(X [][]float64, y []float64, cfg TreeConfig, rng *rand.Rand) (*Tree, error) {
	if err := checkTrainingSet(X, y); err != nil {
		return nil, err
	}
	c := newGrowCtx(len(X[0]), len(X), cfg)
	c.rng = rng
	c.load(X, y)
	c.growTree(allRows(len(X)))
	return &Tree{nodes: c.nodes, nFeature: len(X[0])}, nil
}

// allRows lists rows 0..n-1.
func allRows(n int) []int32 {
	rows := make([]int32, n)
	for i := range rows {
		rows[i] = int32(i)
	}
	return rows
}

func checkTrainingSet(X [][]float64, y []float64) error {
	if len(X) == 0 {
		return fmt.Errorf("mlfit: empty training set")
	}
	if len(X) != len(y) {
		return fmt.Errorf("mlfit: %d rows but %d targets", len(X), len(y))
	}
	nf := len(X[0])
	for i, row := range X {
		if len(row) != nf {
			return fmt.Errorf("mlfit: row %d has %d features, want %d", i, len(row), nf)
		}
	}
	return nil
}

func mean(y []float64, idx []int32) float64 {
	var s float64
	for _, i := range idx {
		s += y[i]
	}
	return s / float64(len(idx))
}

// sse returns the sum of squared errors of idx around its mean m.
func sse(y []float64, idx []int32, m float64) float64 {
	var s float64
	for _, i := range idx {
		d := y[i] - m
		s += d * d
	}
	return s
}

// growCtx is the tree-growth arena. It holds one loaded row set and
// grows any number of trees over it, one at a time, into the same
// buffers; growth allocates nothing once the buffers are sized.
//
// Rows are sorted once per feature when loaded, and a tree never sorts
// again: growTree lays its rows out in that order by a counting sort of
// its draw keyed by rank, and every node reads its rows as one
// contiguous segment [lo,hi) of each feature's order. A split
// stable-partitions every segment in place, so both children's
// segments stay sorted. Growing a level costs O(n·features) instead of
// a sort per node and feature.
//
// Tie order: rows with equal feature values sit in loaded-row order,
// and repeats of one row in draw order. Trees must match those of the
// reference grower in legacy_test.go, which sorts every node's rows
// with sort.Slice. Node means and SSEs are summed in the same order as
// there (tree rows ascending); the split search's prefix sums visit
// tied rows in a different order, which can move their last bit. That
// changes a tree only where two candidate splits have equal gain in
// exact arithmetic: not seen on one feature, but common with several
// tied features, two of which can cut a node into the same halves
// (presort_test.go pins both cases).
type growCtx struct {
	cfg TreeConfig
	rng *rand.Rand

	// The loaded rows, column-major: cols[f][r] is feature f of row r,
	// and rank[f][r] is r's position among the rows sorted by
	// (cols[f], r).
	cols [][]float64
	ty   []float64
	rank [][]int32

	// The tree being grown: tree row p is loaded row draw[p], with
	// features x[f][p] and target y[p]. A node owns the segment
	// [lo,hi) of idx (its rows, ascending) and of every sorted[f] (its
	// rows by ascending x[f]).
	draw   []int32
	x      [][]float64
	y      []float64
	sorted [][]int32
	idx    []int32
	left   []uint8 // left[p] is 1 if row p goes left at the split being applied
	part   []int32 // stable-partition scratch
	count  []int32 // counting-sort offsets, one per rank plus one

	features []int
	nodes    []treeNode
}

// newGrowCtx sizes an arena for up to n loaded rows of nf features.
func newGrowCtx(nf, n int, cfg TreeConfig) *growCtx {
	c := &growCtx{
		cfg:      cfg.normalized(),
		cols:     make([][]float64, nf),
		ty:       make([]float64, 0, n),
		rank:     make([][]int32, nf),
		draw:     make([]int32, n),
		x:        make([][]float64, nf),
		y:        make([]float64, n),
		sorted:   make([][]int32, nf),
		idx:      make([]int32, n),
		left:     make([]uint8, n),
		part:     make([]int32, n),
		count:    make([]int32, n+1),
		features: make([]int, nf),
		// Every leaf holds ≥1 sample (splits require both sides
		// non-empty), so a tree over n rows has ≤ 2n-1 nodes.
		nodes: make([]treeNode, 0, 2*n-1),
	}
	for f := 0; f < nf; f++ {
		c.cols[f] = make([]float64, n)
		c.rank[f] = make([]int32, n)
		c.x[f] = make([]float64, n)
		c.sorted[f] = make([]int32, n)
	}
	return c
}

// load loads the rows X, y (at most the sized count) and ranks each
// feature's rows: the only sort.
func (c *growCtx) load(X [][]float64, y []float64) {
	c.ty = append(c.ty[:0], y...)
	for f := range c.cols {
		col := c.cols[f][:len(X)]
		for r, row := range X {
			col[r] = row[f]
		}
		ord := c.sorted[f][:len(X)]
		for r := range ord {
			ord[r] = int32(r)
		}
		slices.SortFunc(ord, func(a, b int32) int {
			if d := cmp.Compare(col[a], col[b]); d != 0 {
				return d
			}
			return cmp.Compare(a, b)
		})
		rank := c.rank[f][:len(X)]
		for i, r := range ord {
			rank[r] = int32(i)
		}
		c.cols[f], c.rank[f] = col, rank
	}
}

// growTree grows one tree into c.nodes over the loaded rows listed in
// draw (repeats allowed), replacing the previous tree.
func (c *growCtx) growTree(draw []int32) {
	n := len(draw)
	for f, rank := range c.rank {
		// Counting sort of the tree rows by rank; repeats of one row
		// keep draw order.
		count := c.count[:len(rank)+1]
		clear(count)
		for _, r := range draw {
			count[rank[r]+1]++
		}
		for k := 1; k < len(count); k++ {
			count[k] += count[k-1]
		}
		sorted, x, col := c.sorted[f][:n], c.x[f][:n], c.cols[f]
		for p, r := range draw {
			k := rank[r]
			sorted[count[k]] = int32(p)
			count[k]++
			x[p] = col[r]
		}
	}
	for p, r := range draw {
		c.y[p] = c.ty[r]
		c.idx[p] = int32(p)
	}
	c.nodes = c.nodes[:0]
	c.grow(0, n, 0)
}

// leaf appends a leaf node.
func (c *growCtx) leaf(val float64) {
	c.nodes = append(c.nodes, treeNode{feature: -1, value: val})
}

// grow grows the subtree over the node segment [lo,hi), appending its
// nodes in preorder. It consumes the RNG exactly as the reference
// grower does: one Shuffle per node that searches for a split.
func (c *growCtx) grow(lo, hi, depth int) {
	y, cfg := c.y, c.cfg
	idx := c.idx[lo:hi]
	val := mean(y, idx)
	if depth >= cfg.MaxDepth || len(idx) < 2*cfg.MinLeafSize {
		c.leaf(val)
		return
	}

	nf := len(c.x)
	features := c.features[:nf]
	for i := range features {
		features[i] = i
	}
	if cfg.MaxFeatures > 0 && cfg.MaxFeatures < nf && c.rng != nil {
		c.rng.Shuffle(nf, func(i, j int) { features[i], features[j] = features[j], features[i] })
		features = features[:cfg.MaxFeatures]
	}

	bestGain := 0.0
	bestFeature := -1
	bestThreshold := 0.0
	parentSSE := sse(y, idx, val)

	for _, f := range features {
		order, x := c.sorted[f][lo:hi], c.x[f]

		// Prefix sums allow O(1) variance evaluation of every split.
		var sumL, sumSqL float64
		var sumR, sumSqR float64
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
			// Only split between distinct feature values.
			if x[order[k]] == x[order[k+1]] {
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
				bestGain = gain
				bestFeature = f
				bestThreshold = (x[order[k]] + x[order[k+1]]) / 2
			}
		}
	}

	if bestFeature < 0 || bestGain <= 1e-15 {
		c.leaf(val)
		return
	}

	x, nl := c.x[bestFeature], 0
	for _, p := range idx {
		var l uint8
		if x[p] <= bestThreshold {
			l = 1
		}
		c.left[p] = l
		nl += int(l)
	}
	if nl == 0 || nl == len(idx) {
		c.leaf(val)
		return
	}
	for _, s := range c.sorted {
		c.partition(s[lo:hi], nl)
	}
	c.partition(idx, nl)

	self := len(c.nodes)
	c.nodes = append(c.nodes, treeNode{feature: int32(bestFeature), threshold: bestThreshold, value: val})
	c.grow(lo, lo+nl, depth+1)
	c.nodes[self].right = int32(len(c.nodes))
	c.grow(lo+nl, hi, depth+1)
}

// partition stably moves the nl rows of s marked in c.left to the
// front. The split feature's own segment is usually in place already.
func (c *growCtx) partition(s []int32, nl int) {
	k := 0
	for k < nl && c.left[s[k]] == 1 {
		k++
	}
	if k == nl {
		return
	}
	// Branch-free: every row is written to both sides, and only the
	// cursor of its own side advances.
	right, r := c.part[:len(s)], 0
	for _, p := range s[k:] {
		l := int(c.left[p])
		s[k], right[r] = p, p
		k += l
		r += 1 - l
	}
	copy(s[k:], right[:r])
}

// predict walks preorder nodes for feature vector x.
func predict(nodes []treeNode, x []float64) float64 {
	i := 0
	for nodes[i].feature >= 0 {
		if x[nodes[i].feature] <= nodes[i].threshold {
			i++
		} else {
			i = int(nodes[i].right)
		}
	}
	return nodes[i].value
}

// Predict returns the tree's prediction for feature vector x.
func (t *Tree) Predict(x []float64) float64 { return predict(t.nodes, x) }

// Depth returns the maximum depth of the tree (a single leaf has depth 0).
func (t *Tree) Depth() int { return t.depthAt(0) }

func (t *Tree) depthAt(i int) int {
	n := t.nodes[i]
	if n.feature < 0 {
		return 0
	}
	return 1 + max(t.depthAt(i+1), t.depthAt(int(n.right)))
}

// MSE returns the mean squared error between predictions and targets,
// E = (1/N) Σ (y_i - ŷ_i)², the paper's fitting loss.
func MSE(pred, actual []float64) float64 {
	if len(pred) != len(actual) {
		panic(fmt.Sprintf("mlfit: MSE length mismatch %d vs %d", len(pred), len(actual)))
	}
	if len(pred) == 0 {
		return 0
	}
	var s float64
	for i := range pred {
		d := pred[i] - actual[i]
		s += d * d
	}
	return s / float64(len(pred))
}

// R2 returns the coefficient of determination of pred against actual.
func R2(pred, actual []float64) float64 {
	if len(actual) == 0 {
		return 0
	}
	var m float64
	for _, v := range actual {
		m += v
	}
	m /= float64(len(actual))
	var ssRes, ssTot float64
	for i := range actual {
		ssRes += (actual[i] - pred[i]) * (actual[i] - pred[i])
		ssTot += (actual[i] - m) * (actual[i] - m)
	}
	if ssTot == 0 {
		if ssRes == 0 {
			return 1
		}
		return math.Inf(-1)
	}
	return 1 - ssRes/ssTot
}
