package main

import (
	"math"
	"testing"
)

func TestPercentile(t *testing.T) {
	cases := []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{nil, 50, 0},
		{[]float64{5}, 90, 5},
		{[]float64{1, 2, 3, 4}, 50, 2.5},
		{[]float64{4, 1, 3, 2}, 50, 2.5}, // input order does not matter
		{[]float64{1, 2, 3, 4}, 90, 3.7}, // rank 0.9·3 = 2.7: 3 + 0.7·(4−3)
		{[]float64{1, 2, 3, 4}, 0, 1},
		{[]float64{1, 2, 3, 4}, 100, 4},
		{[]float64{10, 20, 30, 40, 50}, 25, 20},
		{[]float64{10, 20, 30, 40, 50}, 10, 14}, // rank 0.4: 10 + 0.4·10
	}
	for _, c := range cases {
		if got := percentile(c.xs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v, %g) = %g, want %g", c.xs, c.p, got, c.want)
		}
	}
	xs := []float64{3, 1, 2}
	percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("percentile reordered its input: %v", xs)
	}
}
