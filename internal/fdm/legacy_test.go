package fdm

import (
	"fmt"
	"math"
)

// legacyAllocate is a frozen copy of Allocate before its rows were
// hoisted: it calls xt once per (qubit, assigned qubit, candidate cell),
// reads frequencies from plan.Freq, and scores each swap trial's
// starting state afresh. It is the reference the hoisted Allocate must
// reproduce plan for plan.
func legacyAllocate(g *Grouping, xt CrosstalkFunc, opts AllocOptions) (*FrequencyPlan, error) {
	zones := g.Capacity
	if zones < 1 {
		return nil, fmt.Errorf("fdm: grouping has capacity %d", g.Capacity)
	}
	lo0, hi0 := ZoneBounds(zones, 0)
	cellsPerZone := int((hi0 - lo0) / CellWidthGHz)
	if cellsPerZone < 1 {
		return nil, fmt.Errorf("fdm: zone width %.3f GHz below cell width", hi0-lo0)
	}

	plan := &FrequencyPlan{
		Zones:        zones,
		CellsPerZone: cellsPerZone,
		Freq:         make(map[int]float64),
		Cell:         make(map[int]CellRef),
	}
	// occupants[zone][cell] lists qubits in the cell.
	occupants := make([][][]int, zones)
	for z := range occupants {
		occupants[z] = make([][]int, cellsPerZone)
	}
	var assigned []int

	// cellFor picks the cell for qubit q in zone z: among free cells,
	// the one minimizing the leakage-weighted predicted crosstalk
	// against every qubit already assigned (anywhere — cells near a
	// zone border are spectrally close to the next zone's cells). Under
	// crowding, occupied cells compete too, and the cheapest reuse
	// wins.
	cellFor := func(q, z int) (int, bool) {
		bestFree, bestFreeCost := -1, math.Inf(1)
		bestAny, bestAnyCost := 0, math.Inf(1)
		for cell := 0; cell < cellsPerZone; cell++ {
			f := CellFreq(zones, CellRef{Zone: z, Cell: cell})
			var cost float64
			for _, o := range assigned {
				cost += pairCost(xt, f, plan.Freq[o], q, o)
			}
			free := len(occupants[z][cell]) == 0
			if free && cost < bestFreeCost {
				bestFree, bestFreeCost = cell, cost
			}
			if cost < bestAnyCost {
				bestAny, bestAnyCost = cell, cost
			}
		}
		if bestFree >= 0 {
			return bestFree, false
		}
		return bestAny, true
	}

	// groupCost scores a candidate zone permutation for one group given
	// everything already assigned.
	groupCost := func(group []int, zoneOf []int) float64 {
		var cost float64
		freq := func(idx int) float64 {
			z := zoneOf[idx]
			lo, _ := ZoneBounds(zones, z)
			return lo + (hi0-lo0)/2
		}
		for a := 0; a < len(group); a++ {
			fa := freq(a)
			// In-line: members of the same group share a physical line,
			// so their mutual leakage always counts.
			for b := a + 1; b < len(group); b++ {
				cost += pairCost(xt, fa, freq(b), group[a], group[b])
			}
			if opts.CrossLine {
				for _, o := range assigned {
					cost += pairCost(xt, fa, plan.Freq[o], group[a], o)
				}
			}
		}
		return cost
	}

	for _, group := range g.Groups {
		if len(group) > zones {
			return nil, fmt.Errorf("fdm: group of %d exceeds %d zones", len(group), zones)
		}
		// Initial zone assignment by position in the group.
		zoneOf := make([]int, len(group))
		for i := range group {
			zoneOf[i] = i
		}
		// Local search: swap zone assignments within the group while it
		// improves the objective (constraint 3 / the q4<->q6 swap).
		for pass := 0; pass < opts.SwapPasses; pass++ {
			improved := false
			for a := 0; a < len(group); a++ {
				for b := a + 1; b < len(group); b++ {
					before := groupCost(group, zoneOf)
					zoneOf[a], zoneOf[b] = zoneOf[b], zoneOf[a]
					if groupCost(group, zoneOf) < before {
						improved = true
					} else {
						zoneOf[a], zoneOf[b] = zoneOf[b], zoneOf[a]
					}
				}
			}
			if !improved {
				break
			}
		}
		// Commit: pick cells and final frequencies.
		for i, q := range group {
			z := zoneOf[i]
			cell, reused := cellFor(q, z)
			if reused {
				plan.Reused++
			}
			occupants[z][cell] = append(occupants[z][cell], q)
			ref := CellRef{Zone: z, Cell: cell}
			plan.Cell[q] = ref
			plan.Freq[q] = CellFreq(zones, ref)
			assigned = append(assigned, q)
		}
	}
	return plan, nil
}
