package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0..100) of samples by linear
// interpolation between closest ranks; 0 for an empty slice. samples
// need not be sorted and is not modified.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	return s[lo] + (s[hi]-s[lo])*(rank-float64(lo))
}

func median(samples []float64) float64 { return percentile(samples, 50) }

// mean returns the arithmetic mean of samples; 0 for an empty slice.
func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	var sum float64
	for _, v := range samples {
		sum += v
	}
	return sum / float64(len(samples))
}

// maxTailLevel caps the percentile a tail is reported at, so that a
// workload's tail stays the same statistic whether a run collects three
// hundred samples or three thousand.
const maxTailLevel = 95

// minBeyond is how many samples must lie beyond a percentile before it
// is reported: fewer, and the figure is one or two slow operations, not
// a property of the distribution.
const minBeyond = 10

// tail returns the latency at the highest percentile that has at least
// minBeyond samples beyond it, capped at maxTailLevel, with that level
// and count. The level moves smoothly with the sample count (a run of
// 150 samples reports p93.3, one of 40 reports p75), so two runs that
// differ by a few samples report nearly the same statistic. With fewer
// than 2·minBeyond samples no percentile above the median qualifies and
// the median is returned: the sample supports no tail claim.
func tail(samples []float64) (value, level float64, beyond int) {
	n := len(samples)
	if n < 2*minBeyond {
		return median(samples), 50, n / 2
	}
	level, beyond = 100*(1-float64(minBeyond)/float64(n)), minBeyond
	if level > maxTailLevel {
		level, beyond = maxTailLevel, n*(100-maxTailLevel)/100
	}
	return percentile(samples, level), level, beyond
}
