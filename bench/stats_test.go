package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestQuantileNearestRankWithinBin(t *testing.T) {
	// Distinct values: the nearest-rank sample, centred on the rank.
	s := []int64{10, 20, 30, 40}
	if got := quantile(s, 0.5); !near(got, 20.5) { // rank 2.0 → s[1], top of its bin
		t.Fatalf("p50 of distinct = %v", got)
	}
	if got := quantile(s, 1); !near(got, 40.5) {
		t.Fatalf("p100 = %v", got)
	}
	// Ties: 100 samples of 200 ns and 100 of 201 ns. The median rank (100)
	// is the last of the 200s, so the figure sits at the top of that bin;
	// p25 (rank 50) sits in its middle.
	var tied []int64
	for i := 0; i < 100; i++ {
		tied = append(tied, 200)
	}
	for i := 0; i < 100; i++ {
		tied = append(tied, 201)
	}
	if got := quantile(tied, 0.5); !near(got, 200.5) {
		t.Fatalf("p50 of ties = %v, want 200.5", got)
	}
	if got := quantile(tied, 0.25); !near(got, 200.0) {
		t.Fatalf("p25 of ties = %v, want 200.0", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Fatalf("empty = %v", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Fatalf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Fatalf("even median = %v", got)
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 {
		t.Fatal("median reordered its input")
	}
}

// The per-round quantile comes first, then the median across rounds:
// one disturbed round must not drag the figure.
func TestRoundsQuantileMedianOfRounds(t *testing.T) {
	round := func(base int64) []int64 {
		var s []int64
		for i := int64(0); i < 2000; i++ {
			s = append(s, base+i)
		}
		return s
	}
	rounds := [][]int64{round(1000), round(1000), round(900000), round(1000), round(1000)}
	got, n := roundsQuantile(rounds, 0.5, false)
	if n != 10000 {
		t.Fatalf("n = %d", n)
	}
	if got < 1990 || got > 2010 {
		t.Fatalf("median of per-round p50 = %v, want ≈ 2000", got)
	}
	pooled, _ := roundsQuantile(rounds, 0.99, true)
	if pooled < 900000 {
		t.Fatalf("pooled p99 = %v must see the disturbed round", pooled)
	}
}

// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] and
// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0].
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if !near(q1, 2.75) || !near(q2, 5.5) || !near(q3, 8.25) {
		t.Fatalf("quartiles(1..10) = %v %v %v", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{16, 1, 8, 2, 4})
	if !near(q1, 1.5) || !near(q2, 4) || !near(q3, 12) {
		t.Fatalf("quartiles(1,2,4,8,16) = %v %v %v", q1, q2, q3)
	}
	if got := spreadShare([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1.0) {
		t.Fatalf("spread share = %v, want (8.25-2.75)/5.5", got)
	}
	if got := spreadShare([]float64{7}); got != 0 {
		t.Fatalf("one value has no spread, got %v", got)
	}
}
