package main

import "testing"

// TestPercentileRefusesThinTails: the reporter refuses a percentile with
// fewer than ten samples beyond it and reports the count either way.
func TestPercentileRefusesThinTails(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i)
		}
		return xs
	}
	if p, err := percentile(seq(999), 0.99); err == nil {
		t.Fatalf("p99 of 999 samples (9 beyond) accepted: %+v", p)
	}
	p, err := percentile(seq(1000), 0.99)
	if err != nil {
		t.Fatalf("p99 of 1000 samples (10 beyond) refused: %v", err)
	}
	if p.Value != 990 || p.N != 1000 {
		t.Fatalf("p99 of 1..1000 = %+v, want 990 with n=1000", p)
	}
	if _, err := percentile(seq(19), 0.5); err == nil {
		t.Fatal("p50 of 19 samples (9 beyond) accepted")
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Fatal("p50 of no samples accepted")
	}
	rep := &report{Samples: map[string]pct{}, Values: map[string]float64{}}
	rep.layerLatency("deliver_p99_ms", seq(500), 0.99, 1)
	if rep.Values["deliver_p99_ms"] != 0 || len(rep.Refused) != 1 || rep.Samples["deliver_p99_ms"].N != 500 {
		t.Fatalf("thin p99 reported as %v (refused %v, samples %+v)", rep.Values["deliver_p99_ms"], rep.Refused, rep.Samples)
	}
}

// TestQuartilesMatchPython: the compare mode's quartiles are Python's
// statistics.quantiles(xs, n=4), which the steadiness check uses.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 8.25},
		// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
		{[]float64{4, 1, 2}, 1, 4},
		// statistics.quantiles([3, 5], n=4) == [2.5, 4.0, 5.5]
		{[]float64{5, 3}, 2.5, 5.5},
	} {
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}
