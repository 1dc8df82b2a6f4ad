package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{n: 1000, want: 990, ok: true}, // rank 990, samples 991..1000 beyond
		{n: 1001, want: 991, ok: true},
		{n: 999, want: 990, ok: false}, // only 9 beyond
		{n: 100, want: 99, ok: false},
		{n: 1, want: 1, ok: false},
	} {
		got, ok := tailPercentile(seq(tc.n), 0.99)
		if got != tc.want || ok != tc.ok {
			t.Errorf("n=%d: p99 = %v, %v; want %v, %v", tc.n, got, ok, tc.want, tc.ok)
		}
	}
}

func TestTailPercentileCountsFailuresAsInfinite(t *testing.T) {
	xs := seq(1000)
	for i := 985; i < 1000; i++ {
		xs[i] = math.Inf(1) // 15 failed requests
	}
	got, ok := tailPercentile(xs, 0.99)
	if !math.IsInf(got, 1) || !ok {
		t.Fatalf("p99 with 1.5%% failures = %v, %v; want +Inf, true", got, ok)
	}
	if p50 := median(xs); p50 != 500.5 {
		t.Fatalf("median = %v, want 500.5", p50)
	}
}

func TestTailPercentileEmpty(t *testing.T) {
	if v, ok := tailPercentile(nil, 0.99); !math.IsNaN(v) || ok {
		t.Fatalf("empty: %v, %v", v, ok)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %v", m)
	}
}
