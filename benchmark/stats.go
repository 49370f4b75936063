package main

import (
	"math"
	"slices"
	"sort"
	"time"
)

// percentile returns the p-th percentile (0 < p ≤ 100) of vals by the
// nearest-rank rule; vals need not be sorted. It returns 0 for no samples.
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// floor is the fastest of vals. The sandbox's neighbours slow a share of a
// run's requests that swings from a tenth to a half within minutes, and a
// run's median and tail swing with it by 15–35 %; the fastest reply to one
// distinct request is what the program costs when the box leaves it alone,
// and repeats within 1–3 % (README, "Why floors").
func floor(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	return slices.Min(vals)
}

// floorMean is the mean of the groups' floors, weighted by group size:
// the floor of a mix of requests that differ in cost.
func floorMean[K comparable](groups map[K][]float64) float64 {
	var sum float64
	n := 0
	for _, g := range groups {
		sum += floor(g) * float64(len(g))
		n += len(g)
	}
	return ratio(sum, float64(n))
}

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(vals, n=4) computes them (the exclusive method), so
// -repeat judges spread by the rule the acceptance driver uses. It needs
// at least two values.
func quartiles(vals []float64) (q1, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 { // i-th of 4 cut points
		j := i * (n + 1) / 4
		delta := i*(n+1) - j*4
		if j < 1 {
			j, delta = 1, 0
		}
		if j > n-1 {
			j, delta = n-1, 4
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio returns a/b, or 0 when b is 0 (a per-query count over no queries).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
