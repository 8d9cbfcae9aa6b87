package main

import (
	"math"
	"testing"
)

func TestMedianAndPercentile(t *testing.T) {
	vs := []float64{9, 1, 5, 3, 7}
	if got := median(vs); got != 5 {
		t.Errorf("median(odd) = %v, want 5", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(even) = %v, want 2.5", got)
	}
	if vs[0] != 9 {
		t.Error("median sorted its argument in place")
	}
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(100 - i) // 100..1, unsorted
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {100, 100}, {1, 1}} {
		if got := percentile(hundred, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	// A failed op is +Inf: with 11 of 100 failed, p90 is a failure.
	for i := 0; i < 11; i++ {
		hundred[i] = math.Inf(1)
	}
	if got := percentile(hundred, 90); !math.IsInf(got, 1) {
		t.Errorf("p90 with 11%% failures = %v, want +Inf", got)
	}
	if got := percentile(hundred, 50); math.IsInf(got, 1) {
		t.Errorf("p50 with 11%% failures = %v, want finite", got)
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(vs, n=4) gives, which is what the driver uses.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v, want 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{10, 30, 20, 50, 40})
	if q1 != 15 || q3 != 45 {
		t.Errorf("quartiles(5 values) = %v, %v, want 15, 45", q1, q3)
	}
}

func TestMedianOfSlicesIgnoresOneStall(t *testing.T) {
	steady := []slice{{4, 400, 800}, {4, 404, 808}, {4, 396, 792}, {4, 400, 800}, {4, 408, 816}, {4, 392, 784}}
	stalled := append([]slice(nil), steady...)
	stalled[3] = slice{4, 0, 4000} // a noisy neighbour: nothing completes, CPU burns
	if a, b := medianSliceRate(steady), medianSliceRate(stalled); math.Abs(a-b)/a > 0.02 {
		t.Errorf("one stalled slice moved the slice rate from %v to %v", a, b)
	}
	if got := medianSliceRate(steady); got != 100 {
		t.Errorf("medianSliceRate = %v, want 100", got)
	}
	if a, b := medianSliceCPU(steady), medianSliceCPU(stalled); a != 2 || math.Abs(a-b) > 0.01 {
		t.Errorf("medianSliceCPU steady %v (want 2), with a stalled slice %v", a, b)
	}
}
