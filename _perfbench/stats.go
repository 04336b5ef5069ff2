package main

import (
	"math"
	"sort"
	"strconv"

	"repro/internal/rng"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// blocks splits xs into consecutive blocks of n values and drops a
// partial last block. With n <= 0, or fewer than n values, the only
// block is all of xs.
func blocks(xs []float64, n int) [][]float64 {
	if n <= 0 || len(xs) < n {
		return [][]float64{xs}
	}
	var out [][]float64
	for i := 0; i+n <= len(xs); i += n {
		out = append(out, xs[i:i+n])
	}
	return out
}

// blockRate returns the operation rate of lat, latencies of operations
// run back to back, as the median over blocks of n operations of n
// divided by the block's total latency.
func blockRate(lat []float64, n int) float64 {
	var rates []float64
	for _, b := range blocks(lat, n) {
		sum := 0.0
		for _, x := range b {
			sum += x
		}
		rates = append(rates, float64(len(b))/sum)
	}
	return median(rates)
}

// blockTail returns the tail latency of each block of n operations, read
// by tailLatency up to limit, as the median over blocks, and the
// percentile it was read at (the same for every full block).
func blockTail(lat []float64, limit float64, n int) (value, percentile float64) {
	var tails []float64
	for _, b := range blocks(lat, n) {
		var t float64
		t, percentile = tailLatency(b, limit)
		tails = append(tails, t)
	}
	return median(tails), percentile
}

// tailPercentiles are the percentiles op_tail_s may be read at.
var tailPercentiles = []float64{95, 90, 75, 50}

// tailLatency returns the latency at the highest of tailPercentiles, up
// to limit, that has at least ten operations beyond it, and that
// percentile. The value is the nearest-rank order statistic.
func tailLatency(lat []float64, limit float64) (value, percentile float64) {
	s := append([]float64(nil), lat...)
	sort.Float64s(s)
	n := len(s)
	for _, p := range tailPercentiles {
		rank := int(math.Ceil(p / 100 * float64(n)))
		if p <= limit && rank >= 1 && n-rank >= 10 {
			return s[rank-1], p
		}
	}
	return median(lat), 50
}

// opSeed derives operation i's seed from the workload seed, so the
// operation list is a pure function of the seed.
func opSeed(seed uint64, i int) uint64 {
	return seed ^ rng.Hash64("perfbench-op-"+strconv.Itoa(i))
}
