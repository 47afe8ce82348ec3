package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// medianIndex returns the index into xs of its lower-middle sample, so
// callers can report every figure of the one median run together.
func medianIndex(xs []float64) int {
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	return idx[(len(idx)-1)/2]
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// nearestRank returns the 1-based nearest-rank position of the p-th
// percentile among n samples.
func nearestRank(p float64, n int) int {
	// The epsilon keeps float error in p·n/100 (99.9·10000/100 is
	// 9990.000000000002) from pushing an exact rank up by one.
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the p-th percentile of xs, interpolated linearly
// between the two samples around position p/100·(n-1) of the sorted
// samples (0 for no samples). Unlike the nearest rank, it is not the
// largest sample alone for a p90 of fewer than ten samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	pos := p / 100 * float64(len(s)-1)
	i := int(pos)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// Tail is a latency tail reported under the ten-samples rule: the
// highest standard percentile that still has at least minTailBeyond
// samples strictly beyond its rank, with the counts that justify it.
type Tail struct {
	P      float64 `json:"p"`
	Value  float64 `json:"value"`
	Beyond int     `json:"beyond"`
	N      int     `json:"n"`
}

// minTailBeyond is how many samples must lie beyond a reported tail
// percentile.
const minTailBeyond = 10

// tailPercentiles are the candidate percentiles, lowest first.
var tailPercentiles = []float64{50, 90, 99, 99.9}

// tailPercentile picks the highest percentile of tailPercentiles with at
// least minBeyond samples beyond it. It reports false when even the
// median lacks that many.
func tailPercentile(xs []float64, minBeyond int) (Tail, bool) {
	if len(xs) == 0 {
		return Tail{}, false
	}
	s := sortedCopy(xs)
	var best Tail
	ok := false
	for _, p := range tailPercentiles {
		r := nearestRank(p, len(s))
		if beyond := len(s) - r; beyond >= minBeyond {
			best = Tail{P: p, Value: s[r-1], Beyond: beyond, N: len(s)}
			ok = true
		}
	}
	return best, ok
}

// Ratio is a share or rate that keeps its base, so a reader can tell a
// 0.5 of 2 from a 0.5 of 2 million. A zero base reads as 0.
type Ratio struct {
	Num  float64 `json:"num"`
	Base float64 `json:"base"`
}

// Value returns Num/Base, or 0 when Base is 0.
func (r Ratio) Value() float64 {
	if r.Base == 0 {
		return 0
	}
	return r.Num / r.Base
}
