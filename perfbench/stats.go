package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the p-quantile (0..1) of xs by linear interpolation
// between closest ranks; NaN when xs is empty.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// latenciesMS returns the latencies of calls in milliseconds.
func latenciesMS(calls []*call) []float64 {
	out := make([]float64, len(calls))
	for i, c := range calls {
		out[i] = ms(c.latency())
	}
	return out
}

// perGraphPercentile is the mean over graphs of each graph's p-quantile of
// calls' latency in ms. A pooled quantile over graphs whose costs differ
// several-fold lands on the gap between them and jumps with the mix; the
// mean of per-graph quantiles does not.
func perGraphPercentile(calls []*call, p float64) float64 {
	byGraph := make(map[*benchGraph][]*call)
	for _, c := range calls {
		byGraph[c.g] = append(byGraph[c.g], c)
	}
	var qs []float64
	for _, cs := range byGraph {
		qs = append(qs, percentile(latenciesMS(cs), p))
	}
	return mean(qs)
}
