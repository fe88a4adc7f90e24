package main

import "testing"

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	if q1, q2, q3 = quartiles([]float64{1, 2, 4, 8, 16}); q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{name: "read_p50_us", better: "lower", bound: 0.10}
	higher := metricDef{name: "ops_per_s", better: "higher", bound: 0.10}
	steady := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		d          metricDef
		base, cand []float64
		want       string
	}{
		{lower, steady, []float64{105, 104, 106, 105, 105}, "ok"},
		{lower, steady, []float64{115, 114, 116, 115, 115}, "regressed"},
		{lower, steady, []float64{85, 84, 86, 85, 85}, "ok"}, // better is never a regression
		{higher, steady, []float64{85, 84, 86, 85, 85}, "regressed"},
		{higher, steady, []float64{115, 114, 116, 115, 115}, "ok"},
		{lower, steady, []float64{80, 100, 120, 140, 160}, "unresolved"}, // spread wider than the bound
		{metricDef{name: "error_share", better: "lower"}, []float64{0, 0, 0}, []float64{0, 0, 0}, "ok"},
		{metricDef{name: "error_share", better: "lower"}, []float64{0, 0, 0}, []float64{0.1, 0.1, 0.1}, "regressed"},
	} {
		if got, _, _ := verdict(c.d, c.base, c.cand); got != c.want {
			t.Errorf("%s base %v cand %v: %s, want %s", c.d.name, c.base, c.cand, got, c.want)
		}
	}
}
