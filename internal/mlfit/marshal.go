package mlfit

import (
	"fmt"

	"repro/internal/binpack"
)

// AppendBinary encodes a trained forest: tree count, then each tree's
// feature arity and its nodes in preorder. A node is (present flag,
// feature, threshold, value); children follow exactly when feature >= 0,
// so the preorder stream needs no explicit pointers.
func (f *Forest) AppendBinary(e *binpack.Enc) {
	e.U32(uint32(len(f.trees)))
	for _, t := range f.trees {
		e.Int(t.nFeature)
		for _, n := range t.nodes {
			e.Bool(true)
			e.Int(int(n.feature))
			e.F64(n.threshold)
			e.F64(n.value)
		}
	}
}

// DecodeBinary rebuilds a forest encoded by AppendBinary. The decoded
// forest predicts bit-identically: node structure, split thresholds
// and leaf values round-trip exactly.
func DecodeBinary(d *binpack.Dec) (*Forest, error) {
	n := int(d.U32())
	if err := d.Err(); err != nil {
		return nil, err
	}
	if n < 0 || n > d.Remaining() {
		return nil, fmt.Errorf("mlfit: implausible tree count %d", n)
	}
	f := &Forest{trees: make([]*Tree, n)}
	for i := range f.trees {
		t := &Tree{nFeature: d.Int()}
		nodes, err := decodeNodes(d, t.nFeature)
		if err != nil {
			return nil, err
		}
		t.nodes = nodes
		f.trees[i] = t
	}
	return f, nil
}

// decodeNodes reads one tree's preorder node stream. open holds the
// split nodes whose right subtree has not started yet: a leaf closes
// the innermost one, whose right child is the next node.
func decodeNodes(d *binpack.Dec, nFeature int) ([]treeNode, error) {
	var nodes []treeNode
	var open []int32
	for {
		present := d.Bool()
		feature := d.Int()
		n := treeNode{feature: int32(feature), threshold: d.F64(), value: d.F64()}
		if err := d.Err(); err != nil {
			return nil, err
		}
		if !present || feature < -1 || feature >= nFeature {
			return nil, fmt.Errorf("mlfit: bad tree node (present %v, feature %d of %d)", present, feature, nFeature)
		}
		nodes = append(nodes, n)
		if n.feature >= 0 {
			open = append(open, int32(len(nodes)-1))
			continue
		}
		if len(open) == 0 {
			return nodes, nil
		}
		nodes[open[len(open)-1]].right = int32(len(nodes))
		open = open[:len(open)-1]
	}
}
