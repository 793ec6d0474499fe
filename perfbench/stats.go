package main

import (
	"math"
	"sort"
)

// tailLadder lists the percentiles a tail is reported at, highest first.
// A percentile qualifies only with at least minBeyond samples above it, so
// a tail is never read off a handful of outliers.
var tailLadder = []float64{99, 90, 75, 50}

const minBeyond = 10

// dist summarizes one timing sample: its count, median and tail.
type dist struct {
	N int
	// P50 is the median: the middle sample, or the mean of the middle two.
	P50 float64
	// TailPct is the highest ladder percentile with at least minBeyond
	// samples beyond it, or 100 (the maximum) when N is too small for any.
	TailPct float64
	Tail    float64
}

// summarize returns the median and the highest percentile of xs that has at
// least ten samples beyond it, with the sample count. An empty sample gives
// the zero dist.
func summarize(xs []float64) dist {
	if len(xs) == 0 {
		return dist{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := len(s) / 2
	d := dist{N: len(s), P50: s[mid], TailPct: 100, Tail: s[len(s)-1]}
	if len(s)%2 == 0 {
		d.P50 = (s[mid-1] + s[mid]) / 2
	}
	for _, q := range tailLadder {
		if len(s)-rank(len(s), q) >= minBeyond {
			d.TailPct, d.Tail = q, percentile(s, q)
			break
		}
	}
	return d
}

// rank is the 1-based nearest-rank position of percentile q in n samples.
func rank(n int, q float64) int {
	r := int(math.Ceil(q / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	return r
}

// percentile reads the nearest-rank percentile q off sorted samples; the
// ladder's p50 is read this way too, so a tail always is a sample.
func percentile(sorted []float64, q float64) float64 {
	return sorted[rank(len(sorted), q)-1]
}

// median is the median of xs (0 for none).
func median(xs []float64) float64 { return summarize(xs).P50 }
