package main

import "testing"

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so summarize must sort
	}
	return xs
}

func TestSummarizeTailHasTenBeyond(t *testing.T) {
	cases := []struct {
		n       int
		p50     float64
		tailPct float64
		tail    float64
	}{
		{n: 1, p50: 1, tailPct: 100, tail: 1},
		{n: 2, p50: 1.5, tailPct: 100, tail: 2},
		{n: 10, p50: 5.5, tailPct: 100, tail: 10},
		{n: 19, p50: 10, tailPct: 100, tail: 19},
		{n: 20, p50: 10.5, tailPct: 50, tail: 10},
		{n: 40, p50: 20.5, tailPct: 75, tail: 30},
		{n: 100, p50: 50.5, tailPct: 90, tail: 90},
		{n: 999, p50: 500, tailPct: 90, tail: 900},
		{n: 1000, p50: 500.5, tailPct: 99, tail: 990},
		{n: 5000, p50: 2500.5, tailPct: 99, tail: 4950},
	}
	for _, c := range cases {
		d := summarize(seq(c.n))
		if d.N != c.n || d.P50 != c.p50 || d.TailPct != c.tailPct || d.Tail != c.tail {
			t.Errorf("n=%d: got %+v, want p50=%g p%g=%g", c.n, d, c.p50, c.tailPct, c.tail)
		}
		if d.TailPct < 100 {
			beyond := 0
			for _, x := range seq(c.n) {
				if x > d.Tail {
					beyond++
				}
			}
			if beyond < minBeyond {
				t.Errorf("n=%d: p%g has %d samples beyond it", c.n, d.TailPct, beyond)
			}
		}
	}
}

func TestSummarizeEmptyAndUnsortedInput(t *testing.T) {
	if d := summarize(nil); d != (dist{}) {
		t.Errorf("empty sample: got %+v", d)
	}
	xs := []float64{3, 1, 2}
	if got := median(xs); got != 2 {
		t.Errorf("median = %g, want 2", got)
	}
	if got := median([]float64{0.04, 0.05, 0.04, 0.05}); got != 0.045 {
		t.Errorf("median of two modes = %g, want 0.045", got)
	}
	if xs[0] != 3 {
		t.Errorf("summarize reordered its input: %v", xs)
	}
}
