package main

import (
	"math"
	"math/rand"
	"sort"
)

// tailIndex picks the sample reported as run_ms_p90 from n sorted
// samples: the 90th percentile by nearest rank when at least ten samples
// lie beyond it, otherwise the highest rank that still has ten beyond it.
// Below eleven samples no rank qualifies and the median stands in. It
// returns the index and the percentile that index represents.
func tailIndex(n int) (idx int, pct float64) {
	if n < 11 {
		idx = (n - 1) / 2
		return idx, 50
	}
	idx = int(math.Ceil(0.9*float64(n))) - 1
	if idx > n-11 {
		idx = n - 11
	}
	return idx, 100 * float64(idx+1) / float64(n)
}

// median returns the median of xs (the mean of the middle pair for an
// even count), leaving xs unchanged.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs the way Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method),
// so -check reads a set of results exactly as the regression gate does.
// One sample is its own quartiles.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

func sum(xs []float64) float64 {
	total := 0.0
	for _, x := range xs {
		total += x
	}
	return total
}

// geomean is the geometric mean of positive values.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// passOrders returns a generator of subject orders, one permutation of
// [0, n) per pass. The sequence depends on the seed alone: the seed
// shuffles subject order within each pass and changes nothing else.
func passOrders(seed int64, n int) func() []int {
	rng := rand.New(rand.NewSource(seed))
	return func() []int { return rng.Perm(n) }
}
