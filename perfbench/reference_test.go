package main

import (
	"testing"
	"time"
)

func TestScaleUsesTheMeanOfBothPasses(t *testing.T) {
	// Work that took as long as the passes around it is refNominalMs.
	if got := scale(30*time.Millisecond, 20*time.Millisecond, 40*time.Millisecond); got != refNominalMs {
		t.Errorf("scale = %g, want %d", got, refNominalMs)
	}
	// A host twice as slow doubles work and passes alike.
	fast := scale(100*time.Millisecond, 25*time.Millisecond, 25*time.Millisecond)
	slow := scale(200*time.Millisecond, 50*time.Millisecond, 50*time.Millisecond)
	if fast != slow {
		t.Errorf("scaled %g on a fast host, %g on a slow one", fast, slow)
	}
}

func TestFitReferenceIsFixedWork(t *testing.T) {
	a, b := newRefData(1), newRefData(1)
	first := a.tree()
	if again := a.tree(); again != first {
		t.Errorf("a second tree over the same data sums to %g, the first to %g", again, first)
	}
	if other := b.tree(); other != first {
		t.Errorf("a tree over data of the same seed sums to %g, want %g", other, first)
	}
	r := newFitReference()
	if r.pass() <= 0 || len(r.passMs) != 1 {
		t.Errorf("a pass recorded %v", r.passMs)
	}
	if err := r.close(); err != nil {
		t.Error(err)
	}
}

func TestServeReferenceExchangesAndStops(t *testing.T) {
	r, err := newServeReference(8)
	if err != nil {
		t.Fatal(err)
	}
	r.pass()
	if err := r.close(); err != nil {
		t.Fatal(err)
	}
	if len(r.passMs) != 1 || r.passMs[0] <= 0 {
		t.Errorf("a pass recorded %v", r.passMs)
	}
}
