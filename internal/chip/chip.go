// Package chip models a superconducting quantum chip: qubit placement,
// tunable couplers, lattice topology and the multi-path topological
// distance d_top that the equivalent-distance metric of every grouping
// pass combines with physical distance.
//
// A Chip is a static description of hardware. Qubits carry an on-chip
// position (mm), a fabrication base frequency (GHz) and a relaxation
// time T1 (µs); couplers connect exactly two qubits. The topology graph
// has the qubits as vertices and one edge per coupler.
package chip

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/geom"
	"repro/internal/graphx"
)

// Default physical parameters, taken from the paper's hardware section.
const (
	// DefaultPitch is the qubit-to-qubit pitch in mm.
	DefaultPitch = 1.0
	// DefaultT1 is the average relaxation time in µs.
	DefaultT1 = 90.0
	// FreqMin and FreqMax bound the effective qubit frequency range (GHz).
	FreqMin = 4.0
	FreqMax = 7.0
)

// Qubit is a physical transmon/Xmon qubit.
type Qubit struct {
	ID       int
	Pos      geom.Point // on-chip position, mm
	BaseFreq float64    // fabrication base frequency, GHz (0 until assigned)
	T1       float64    // relaxation time, µs
}

// Coupler is a tunable coupler joining two qubits.
type Coupler struct {
	ID   int
	A, B int        // qubit ids, A < B
	Pos  geom.Point // midpoint of the two qubits
}

// Chip is an immutable chip description.
type Chip struct {
	Name     string
	Topology string // square, heavy-square, hexagon, heavy-hexagon, low-density
	Qubits   []Qubit
	Couplers []Coupler

	graph *graphx.Graph // qubit connectivity, built once

	// topDist returns the d_top matrix, computing it on the first call.
	// It is set once in New, so clones share one matrix. A func value
	// rather than a pointer to a cache struct keeps the stage store's
	// reflective size walk from reading the matrix while another clone
	// is filling it.
	topDist func() [][]float64
}

// New assembles a chip from qubits and coupler endpoint pairs. Coupler
// endpoints are normalized to A < B and validated against the qubit set.
func New(name, topology string, qubits []Qubit, couplerPairs [][2]int) (*Chip, error) {
	c := &Chip{Name: name, Topology: topology, Qubits: qubits}
	g := graphx.New(len(qubits))
	for i, p := range couplerPairs {
		a, b := p[0], p[1]
		if a > b {
			a, b = b, a
		}
		if a < 0 || b >= len(qubits) || a == b {
			return nil, fmt.Errorf("chip %s: bad coupler %d endpoints (%d,%d)", name, i, p[0], p[1])
		}
		if err := g.AddEdge(a, b); err != nil {
			return nil, fmt.Errorf("chip %s: coupler %d: %w", name, i, err)
		}
		mid := qubits[a].Pos.Add(qubits[b].Pos).Scale(0.5)
		c.Couplers = append(c.Couplers, Coupler{ID: i, A: a, B: b, Pos: mid})
	}
	c.graph = g
	n := float64(len(qubits))
	c.topDist = sync.OnceValue(func() [][]float64 {
		m := g.AllMultiPathDistances()
		for _, row := range m {
			for j, d := range row {
				if math.IsInf(d, 1) {
					row[j] = n
				}
			}
		}
		return m
	})
	return c, nil
}

// NumQubits returns the number of qubits.
func (c *Chip) NumQubits() int { return len(c.Qubits) }

// NumCouplers returns the number of couplers.
func (c *Chip) NumCouplers() int { return len(c.Couplers) }

// Clone returns a copy of the chip with private qubit and coupler
// slices. The connectivity graph and its d_top matrix are shared — both
// are immutable after construction — but device fabrication
// (xmon.NewDevice) writes base frequencies into the qubit slice, so
// callers fabricating several devices from one prototype clone it first
// to keep each device's frequency assignment isolated.
func (c *Chip) Clone() *Chip {
	d := *c
	d.Qubits = append([]Qubit(nil), c.Qubits...)
	d.Couplers = append([]Coupler(nil), c.Couplers...)
	return &d
}

// Graph returns the qubit-connectivity graph (one edge per coupler).
func (c *Chip) Graph() *graphx.Graph { return c.graph }

// Degree returns the connectivity of qubit q.
func (c *Chip) Degree(q int) int { return c.graph.Degree(q) }

// CouplerBetween returns the coupler joining qubits a and b, if any.
func (c *Chip) CouplerBetween(a, b int) (Coupler, bool) {
	if a > b {
		a, b = b, a
	}
	for _, cp := range c.Couplers {
		if cp.A == a && cp.B == b {
			return cp, true
		}
	}
	return Coupler{}, false
}

// PhysicalDistance returns the Euclidean distance (mm) between qubits
// i and j.
func (c *Chip) PhysicalDistance(i, j int) float64 {
	return c.Qubits[i].Pos.Dist(c.Qubits[j].Pos)
}

// Bounds returns the bounding box of all qubit positions.
func (c *Chip) Bounds() geom.Rect {
	pts := make([]geom.Point, len(c.Qubits))
	for i, q := range c.Qubits {
		pts[i] = q.Pos
	}
	return geom.RectFromPoints(pts)
}

// TopDistance returns the multi-path topological distance d_top(i,j) =
// n*l between qubits i and j, where n is the number of shortest coupler
// paths and l their length (graphx.MultiPathDistance), and 0 for i == j.
// A pair with no coupler path between them gets the qubit count rather
// than +Inf: disconnected qubits still share the substrate, so their
// crosstalk models need a finite distance. This is the only place that
// rule is written. The full matrix is computed on the first call and
// shared by every clone of the chip.
func (c *Chip) TopDistance(i, j int) float64 { return c.topDist()[i][j] }

// EquivWeights are the fitted weights of the equivalent-distance metric
// d_equiv = WPhy*d_phy + WTop*d_top.
type EquivWeights struct {
	WPhy, WTop float64
}

// TwoQubitGate identifies a hardware two-qubit gate site: the qubit pair
// and the coupler that mediates it.
type TwoQubitGate struct {
	Q1, Q2  int // qubit ids, Q1 < Q2
	Coupler int // coupler id
}

// TwoQubitGates returns every hardware 2q-gate site, one per coupler.
func (c *Chip) TwoQubitGates() []TwoQubitGate {
	gs := make([]TwoQubitGate, len(c.Couplers))
	for i, cp := range c.Couplers {
		gs[i] = TwoQubitGate{Q1: cp.A, Q2: cp.B, Coupler: cp.ID}
	}
	return gs
}
