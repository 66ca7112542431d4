package main

import (
	"fmt"
	"math"
	"sort"
)

// median returns the median of xs, or NaN when xs is empty.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics, or NaN when xs is empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tail describes the highest percentile that has at least ten samples
// beyond it, or "-" when there are fewer than eleven samples.
func tail(xs []float64) string {
	if len(xs) < 11 {
		return "-"
	}
	q := 1 - 10/float64(len(xs))
	return fmt.Sprintf("p%.1f=%.4f", 100*q, quantile(xs, q))
}
