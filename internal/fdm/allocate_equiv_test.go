package fdm

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// randomGrouping shuffles n qubit ids (not 0..n-1 in order, and with
// gaps) into lines of 1..capacity members.
func randomGrouping(rng *rand.Rand, n, capacity int) *Grouping {
	ids := rng.Perm(n + n/3)[:n]
	g := &Grouping{Capacity: capacity}
	for len(ids) > 0 {
		k := 1 + rng.Intn(capacity)
		if k > len(ids) {
			k = len(ids)
		}
		g.Groups = append(g.Groups, ids[:k:k])
		ids = ids[k:]
	}
	return g
}

// randomXT draws an xt function from a few shapes: an asymmetric random
// table, a symmetric distance decay, and a sparse table with exact
// zeros and ties.
func randomXT(rng *rand.Rand, n int) CrosstalkFunc {
	m := n + n/3
	tab := make([]float64, m*m)
	shape := rng.Intn(3)
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			switch shape {
			case 0:
				tab[i*m+j] = rng.Float64() * 0.1
			case 1:
				tab[i*m+j] = 0.6 * math.Exp(-math.Abs(float64(i-j))/3)
			case 2:
				if rng.Intn(4) == 0 {
					tab[i*m+j] = float64(rng.Intn(3)) * 0.01
				}
			}
		}
	}
	return func(i, j int) float64 {
		if i == j {
			return 0
		}
		return tab[i*m+j]
	}
}

func assertSamePlan(t *testing.T, g *Grouping, xt CrosstalkFunc, opts AllocOptions) *FrequencyPlan {
	t.Helper()
	want, werr := legacyAllocate(g, xt, opts)
	got, gerr := Allocate(g, xt, opts)
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("errors differ: got %v, want %v", gerr, werr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("plans differ (capacity %d, %d lines, %+v):\ngot  %+v\nwant %+v",
			g.Capacity, len(g.Groups), opts, got, want)
	}
	return got
}

// TestAllocateMatchesLegacy: hoisting xt rows out of the cell scan,
// reading frequencies from a slice and carrying the swap search's
// current cost must leave every plan bit-identical.
func TestAllocateMatchesLegacy(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 120; trial++ {
		capacity := 2 + trial%7
		n := 1 + rng.Intn(60)
		g := randomGrouping(rng, n, capacity)
		xt := randomXT(rng, n)
		for _, cross := range []bool{true, false} {
			for _, passes := range []int{0, 1, 3} {
				assertSamePlan(t, g, xt, AllocOptions{SwapPasses: passes, CrossLine: cross})
			}
		}
	}
}

// TestAllocateMatchesLegacyCrowded: more lines than a zone has cells,
// so later qubits must reuse occupied cells.
func TestAllocateMatchesLegacyCrowded(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for capacity := 2; capacity <= 8; capacity++ {
		lo, hi := ZoneBounds(capacity, 0)
		cells := int((hi - lo) / CellWidthGHz)
		// Singletons all land in zone 0, so cells+5 of them crowd it;
		// every fourth line is full, spreading occupancy over all zones.
		singles, full := cells+5, 10
		n := singles + full*capacity
		g := &Grouping{Capacity: capacity}
		ids := rng.Perm(n)
		for len(ids) > 0 {
			k := 1
			if (len(g.Groups)%4 == 3 && full > 0) || singles == 0 {
				k = capacity
				full--
			} else {
				singles--
			}
			g.Groups = append(g.Groups, ids[:k:k])
			ids = ids[k:]
		}
		xt := randomXT(rng, n)
		for _, cross := range []bool{true, false} {
			plan := assertSamePlan(t, g, xt, AllocOptions{SwapPasses: 3, CrossLine: cross})
			if plan.Reused == 0 {
				t.Fatalf("capacity %d: %d qubits over %d cells per zone reused no cell", capacity, n, cells)
			}
		}
	}
}
