package main

import (
	"math"
	"sort"
)

// percentile is the q-th quantile (0..1) of xs by linear interpolation
// between closest ranks; xs need not be sorted.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// quartiles returns the first and third quartile by the method of
// Python's statistics.quantiles(xs, n=4) (the "exclusive" method), so the
// spreads this program reports are the ones a reader recomputes from the
// raw values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	switch len(s) {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	n, m := 4, len(s)+1
	q := func(i int) float64 {
		j := min(max(i*m/n, 1), len(s)-1)
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / float64(n)
	}
	return q(1), q(3)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
