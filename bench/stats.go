package main

import (
	"math"
	"slices"
	"sort"
)

// quantile returns the q-quantile (0 < q <= 1) of ascending samples in
// whole nanoseconds. It is the nearest-rank sample, placed inside its
// 1 ns bin by where the rank falls among the samples that share the
// value (the grouped-data quantile): hundreds of thousands of 200 ns
// reads share a few clock values, and without this the median would
// snap to the clock's grid and read the same on every run.
func quantile(sorted []int64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := q * float64(n)
	i := int(math.Ceil(rank)) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	v := sorted[i]
	lo := sort.Search(n, func(k int) bool { return sorted[k] >= v })
	hi := sort.Search(n, func(k int) bool { return sorted[k] > v })
	return float64(v) - 0.5 + (rank-float64(lo))/float64(hi-lo)
}

// median returns the median of xs (mean of the middle two when even),
// leaving xs untouched.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// roundsQuantile is how every latency is reported. Not pooled: the
// q-quantile of each round's samples first, then the median of those
// per-round values. Pooled: the q-quantile of all rounds' samples
// together. n is the total number of samples behind the figure.
func roundsQuantile(rounds [][]int64, q float64, pooled bool) (ns float64, n int) {
	if pooled {
		var all []int64
		for _, r := range rounds {
			all = append(all, r...)
		}
		rounds = [][]int64{all}
	}
	var per []float64
	for _, r := range rounds {
		if len(r) == 0 {
			continue
		}
		s := append([]int64(nil), r...)
		slices.Sort(s)
		per = append(per, quantile(s, q))
		n += len(s)
	}
	return median(per), n
}

// quartiles returns what Python's statistics.quantiles(xs, n=4) gives
// (the default "exclusive" method), so that compare and selfcheck judge
// spread exactly as the driver does. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	cut := func(i int) float64 {
		m := ld + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spreadShare is the distance between the first and third quartile as
// a share of the median; 0 when there are fewer than two values.
func spreadShare(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, _, q3 := quartiles(xs)
	m := median(xs)
	if m == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(m)
}
