package crosstalk

import (
	"math"
	"sync"
	"testing"

	"repro/internal/binpack"
	"repro/internal/chip"
)

// TestPredictDistanceMatchesForest checks the compiled step function
// against a walk of the forest, bit for bit: at every cut, next to and
// between cuts, beyond both ends, at NaN, and at the equivalent
// distance of every pair of a 36-qubit chip — for the fitted model and
// for a decoded copy, which rebuilds the steps on first use. The
// predictor's pair table must hold the same values.
func TestPredictDistanceMatchesForest(t *testing.T) {
	c := chip.Square(6, 6)
	m, _ := fitOn(t, c, 1)
	e := &binpack.Enc{}
	m.AppendBinary(e)
	decoded, err := DecodeBinary(binpack.NewDec(e.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	cuts, _ := m.forest.Steps()
	if len(cuts) == 0 {
		t.Fatal("fitted forest has no splits")
	}
	probes := []float64{math.Inf(-1), math.Inf(1), math.NaN(), 0}
	for i, x := range cuts {
		probes = append(probes, x, math.Nextafter(x, math.Inf(-1)), math.Nextafter(x, math.Inf(1)))
		if i+1 < len(cuts) {
			probes = append(probes, (x+cuts[i+1])/2)
		}
	}
	p := m.On(c)
	for i := 0; i < c.NumQubits(); i++ {
		for j := i + 1; j < c.NumQubits(); j++ {
			probes = append(probes, p.EquivDistance(i, j))
		}
	}
	for _, model := range []*Model{m, decoded} {
		for _, d := range probes {
			want := m.forest.Predict([]float64{d})
			if got := model.PredictDistance(d); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("PredictDistance(%v) = %v, forest.Predict %v", d, got, want)
			}
		}
		p := model.On(c)
		for i := 0; i < c.NumQubits(); i++ {
			for j := 0; j < c.NumQubits(); j++ {
				want := 0.0
				if i != j {
					want = m.forest.Predict([]float64{p.EquivDistance(i, j)})
				}
				if got := p.Predict(i, j); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("Predict(%d,%d) = %v, forest.Predict %v", i, j, got, want)
				}
			}
		}
	}
}

// TestPredictDistanceConcurrentFirstUse races the first predictions of
// a decoded model: the steps are built once and every caller sees them.
func TestPredictDistanceConcurrentFirstUse(t *testing.T) {
	c := chip.Square(4, 4)
	m, _ := fitOn(t, c, 2)
	e := &binpack.Enc{}
	m.AppendBinary(e)
	decoded, err := DecodeBinary(binpack.NewDec(e.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	want := m.On(c).Matrix()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := decoded.On(c).Matrix()
			for i := range got {
				for j := range got[i] {
					if got[i][j] != want[i][j] {
						t.Errorf("pair (%d,%d): %v, want %v", i, j, got[i][j], want[i][j])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
