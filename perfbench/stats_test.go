package main

import "testing"

func TestTailRankKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false},
		{99, 0, false},
		{100, 90, true},
		{999, 90, true},
		{1000, 99, true},
		{9999, 99, true},
		{10000, 99.9, true},
		{174000, 99.99, true},
	} {
		got, ok := tailRank(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailRank(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
		if ok && float64(c.n)*(1-got/100) < minBeyond-1e-9 {
			t.Errorf("tailRank(%d) = %v leaves fewer than %d samples beyond", c.n, got, minBeyond)
		}
	}
}

func TestPercentileAndMedian(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100 … 1, unsorted on purpose
	}
	if got := percentile(xs, 90); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", got)
	}
	if got := median(xs); got != 50.5 {
		t.Errorf("median of 1..100 = %v, want 50.5", got)
	}
	if xs[0] != 100 {
		t.Error("percentile or median reordered its input")
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of {3,1,2} = %v, want 2", got)
	}
	s := summarize(xs[:50])
	if s.N != 50 || s.Tail != 0 {
		t.Errorf("summarize of 50 samples = %+v, want no tail percentile", s)
	}
}
