package fdm

import (
	"context"
	"math"
	"testing"
)

func annealFixture(t *testing.T) (*Grouping, *FrequencyPlan) {
	t.Helper()
	g, err := Group(members(16), 4, euclid)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Allocate(g, lineXT, DefaultAllocOptions())
	if err != nil {
		t.Fatal(err)
	}
	return g, plan
}

func TestAnnealPreservesInvariants(t *testing.T) {
	g, plan := annealFixture(t)
	refined, _, _, err := Anneal(context.Background(), plan, g, lineXT, DefaultAnnealOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := refined.Validate(g); err != nil {
		t.Fatal(err)
	}
}

func TestAnnealNeverWorsens(t *testing.T) {
	g, plan := annealFixture(t)
	_, before, after, err := Anneal(context.Background(), plan, g, lineXT, DefaultAnnealOptions())
	if err != nil {
		t.Fatal(err)
	}
	// The annealer may accept uphill moves but reports its own final
	// cost; require it not to end worse than a small tolerance.
	if after > before*1.05+1e-12 {
		t.Errorf("anneal worsened the plan: %.4g -> %.4g", before, after)
	}
}

func TestAnnealImprovesBadStart(t *testing.T) {
	// Start from the George-style in-line comb (cross-line collisions
	// everywhere): annealing must improve it substantially.
	g := LocalClusterGroup(members(16), 4)
	plan := InLineAllocate(g)
	_, before, after, err := Anneal(context.Background(), plan, g, lineXT, DefaultAnnealOptions())
	if err != nil {
		t.Fatal(err)
	}
	if after >= before {
		t.Errorf("anneal failed to improve a colliding plan: %.4g -> %.4g", before, after)
	}
	if after > 0.8*before {
		t.Errorf("anneal improvement too small: %.4g -> %.4g", before, after)
	}
}

func TestAnnealInputUnmodified(t *testing.T) {
	g, plan := annealFixture(t)
	orig := clonePlan(plan)
	if _, _, _, err := Anneal(context.Background(), plan, g, lineXT, DefaultAnnealOptions()); err != nil {
		t.Fatal(err)
	}
	for q, f := range orig.Freq {
		if plan.Freq[q] != f {
			t.Fatalf("input plan mutated at q%d", q)
		}
	}
}

func TestAnnealValidation(t *testing.T) {
	g, plan := annealFixture(t)
	bad := DefaultAnnealOptions()
	bad.Steps = -1
	if _, _, _, err := Anneal(context.Background(), plan, g, lineXT, bad); err == nil {
		t.Error("negative steps accepted")
	}
	bad = DefaultAnnealOptions()
	bad.StartTemp = 0
	if _, _, _, err := Anneal(context.Background(), plan, g, lineXT, bad); err == nil {
		t.Error("zero temperature accepted")
	}
	bad = DefaultAnnealOptions()
	bad.EndTemp = bad.StartTemp * 10
	if _, _, _, err := Anneal(context.Background(), plan, g, lineXT, bad); err == nil {
		t.Error("inverted temperatures accepted")
	}
}

func TestAnnealDeterministic(t *testing.T) {
	g, plan := annealFixture(t)
	a, _, afterA, err := Anneal(context.Background(), plan, g, lineXT, DefaultAnnealOptions())
	if err != nil {
		t.Fatal(err)
	}
	b, _, afterB, err := Anneal(context.Background(), plan, g, lineXT, DefaultAnnealOptions())
	if err != nil {
		t.Fatal(err)
	}
	if afterA != afterB {
		t.Fatalf("costs differ: %v vs %v", afterA, afterB)
	}
	for q := range a.Freq {
		if a.Freq[q] != b.Freq[q] {
			t.Fatal("plans differ across identical seeds")
		}
	}
}

func TestAnnealZeroStepsIsIdentity(t *testing.T) {
	g, plan := annealFixture(t)
	opts := DefaultAnnealOptions()
	opts.Steps = 0
	refined, before, after, err := Anneal(context.Background(), plan, g, lineXT, opts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(before-after) > 1e-15 {
		t.Errorf("zero steps changed cost: %v -> %v", before, after)
	}
	for q := range plan.Freq {
		if refined.Freq[q] != plan.Freq[q] {
			t.Fatal("zero-step anneal moved a qubit")
		}
	}
}
