package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile: a
// p99 of 500 samples rests on five and is refused.
const minBeyond = 10

// pct is a reported percentile with the sample count behind it.
type pct struct {
	Value float64 `json:"value"`
	N     int     `json:"n"`
}

// percentile returns the nearest-rank q-quantile of samples (sorting them
// in place), or an error when fewer than minBeyond samples lie beyond it.
func percentile(samples []float64, q float64) (pct, error) {
	n := len(samples)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		return pct{N: n}, fmt.Errorf("p%g refused: %d samples beyond it of %d, need %d", q*100, n-rank, n, minBeyond)
	}
	if !sort.Float64sAreSorted(samples) {
		sort.Float64s(samples)
	}
	return pct{Value: samples[rank-1], N: n}, nil
}

// median of a small set of measurements (set-up repetitions, compare
// mode); it makes no tail claim, so it needs no minimum count.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return math.NaN()
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method), so the
// compare mode's spreads match the steadiness check's.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0]
	}
	at := func(i int) float64 { // i in 1..3
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}
