package main

import (
	"slices"
	"testing"
)

func TestCalm(t *testing.T) {
	for _, c := range []struct {
		shares  []float64
		weights []int
		need    int
		want    []bool
	}{
		// Windows within the limit count, the others do not.
		{[]float64{0, 0.05, 0.01, 0.5}, []int{1, 1, 1, 1}, 1, []bool{true, false, true, false}},
		// When those within it weigh less than need, the least-stolen
		// others join until they do.
		{[]float64{0.4, 0.1, 0.3, 0.2, 0.01}, []int{1, 1, 1, 1, 1}, 3, []bool{false, true, false, true, true}},
		{[]float64{0.4, 0.1, 0.3, 0.2, 0.01}, []int{5, 5, 5, 5, 5}, 6, []bool{false, true, false, false, true}},
		{[]float64{0.3, 0.3}, []int{1, 1}, 1, []bool{true, false}},
		{[]float64{0.3, 0.3}, []int{1, 1}, 5, []bool{true, true}},
		{nil, nil, 1, []bool{}},
	} {
		if got := calm(c.shares, c.weights, c.need); !slices.Equal(got, c.want) {
			t.Errorf("calm(%v, %v, %d) = %v, want %v", c.shares, c.weights, c.need, got, c.want)
		}
	}
}

func TestStealShare(t *testing.T) {
	a := hostTicks{total: 1000, steal: 10}
	if got := stealShare(a, hostTicks{total: 1200, steal: 20}); got != 0.05 {
		t.Errorf("share = %v, want 0.05", got)
	}
	// Unreadable /proc/stat reads as zero ticks: never stolen from.
	if got := stealShare(hostTicks{}, hostTicks{}); got != 0 {
		t.Errorf("share without ticks = %v, want 0", got)
	}
	if got := stealShare(a, hostTicks{}); got != 0 {
		t.Errorf("share after a failed read = %v, want 0", got)
	}
}
