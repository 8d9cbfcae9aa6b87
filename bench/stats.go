package main

import (
	"math"
	"sort"
)

// median returns the middle value of vs (mean of the two middle values
// for an even count). It sorts a copy; vs is left untouched.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// vs: the smallest sample with at least p percent of the samples at or
// below it. Failed operations are recorded as +Inf, so a window where
// more than 100-p percent of the attempts failed reports +Inf.
func percentile(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// quartiles returns the first and third quartile of vs by the
// "exclusive" method Python's statistics.quantiles(vs, n=4) uses, so
// the A/A report reads the same numbers the driver computes.
func quartiles(vs []float64) (q1, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return math.NaN(), math.NaN()
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based position
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// slice is one cut of the measured window: what completed in it and
// what the process spent on it.
type slice struct {
	seconds float64 // wall time of the slice
	ops     int64   // successful ops that ended in the slice
	cpuMs   float64 // process user+sys CPU spent in the slice
}

// medianSliceRate is client.ops_per_s: the median over slices of successful
// ops per second, so one stalled slice does not move the figure.
func medianSliceRate(ss []slice) float64 {
	rates := make([]float64, 0, len(ss))
	for _, s := range ss {
		if s.seconds > 0 {
			rates = append(rates, float64(s.ops)/s.seconds)
		}
	}
	return median(rates)
}

// medianSliceCPU is client.cpu_ms_per_op: the median over slices of CPU
// milliseconds per successful op. Slices without a completed op carry
// no information about cost per op and are skipped.
func medianSliceCPU(ss []slice) float64 {
	costs := make([]float64, 0, len(ss))
	for _, s := range ss {
		if s.ops > 0 {
			costs = append(costs, s.cpuMs/float64(s.ops))
		}
	}
	return median(costs)
}
