package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a percentile before the
// benchmark reports it: a tail estimate resting on fewer is mostly noise.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// sorted, or 0 for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)-1]
}

// rank is the 1-based nearest-rank index of the p-th percentile of n
// samples. The tolerance keeps float error in p/100·n (99.9/100·10000 is
// 9990.000000000002) from pushing the rank up by one.
func rank(n int, p float64) int {
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// supported reports whether n samples leave at least minBeyond samples
// strictly above the p-th percentile's rank.
func supported(n int, p float64) bool {
	return n > 0 && n-rank(n, p) >= minBeyond
}

// highestSupported returns the highest of the candidate percentiles that n
// samples support (see supported), or 0 when none is.
func highestSupported(n int, candidates []float64) float64 {
	best := 0.0
	for _, p := range candidates {
		if supported(n, p) && p > best {
			best = p
		}
	}
	return best
}

// summary holds a sorted sample set and reports percentiles over it.
type summary struct {
	sorted []float64
}

func summarize(xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return summary{sorted: s}
}

func (s summary) n() int               { return len(s.sorted) }
func (s summary) at(p float64) float64 { return percentile(s.sorted, p) }

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// slices is how many slices a measured phase runs in; throughput and median
// latency are the medians over the slices of each slice's figure, so host
// noise that lasts a moment spoils one slice instead of the whole phase.
const slices = 6

// window is one slice's throughput and median latency.
type window struct {
	rps, p50 float64
}
