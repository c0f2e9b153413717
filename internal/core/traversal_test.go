package core

import (
	"fmt"
	"testing"
)

// assertEnginesIdentical runs the engine-identity table — every traversal
// mode at workers {1,2,4} — and compares each cell against the per-source,
// one-worker run bit for bit: all engines are integer accumulations over the
// same sampled rows, so any divergence is a kernel bug, not estimator noise.
func assertEnginesIdentical(t *testing.T, run func(mode TraversalMode, workers int) *Result) {
	t.Helper()
	base := run(TraversalPerSource, 1)
	for _, mode := range []TraversalMode{TraversalAuto, TraversalPerSource, TraversalBatched} {
		for _, w := range []int{1, 2, 4} {
			assertSameResult(t, fmt.Sprintf("%v workers=%d", mode, w), base, run(mode, w))
		}
	}
}

// TestRandomSamplingTraversalModesIdentical runs the engine table through the
// unreduced random-sampling baseline on all four families.
func TestRandomSamplingTraversalModesIdentical(t *testing.T) {
	for _, fam := range relabelFamilies() {
		t.Run(fam.name, func(t *testing.T) {
			g := fam.gen(1500, 42)
			assertEnginesIdentical(t, func(mode TraversalMode, workers int) *Result {
				return RandomSamplingMode(g, 0.2, workers, 7, mode)
			})
		})
	}
}

// TestEstimateTraversalModesIdentical runs the engine table through the full
// estimator stack: global (C+R, I+C+R) and cumulative (BiCC) paths, where
// batching happens on the reduced graph and inside blocks.
func TestEstimateTraversalModesIdentical(t *testing.T) {
	techs := []Technique{TechCR, TechICR, TechCumulative}
	for _, fam := range relabelFamilies() {
		for _, tech := range techs {
			t.Run(fam.name+"/"+tech.String(), func(t *testing.T) {
				g := fam.gen(1200, 5)
				assertEnginesIdentical(t, func(mode TraversalMode, workers int) *Result {
					res, err := Estimate(g, Options{
						Techniques:     tech,
						SampleFraction: 0.2,
						Workers:        workers,
						Seed:           3,
						Traversal:      mode,
					})
					if err != nil {
						t.Fatal(err)
					}
					return res
				})
			})
		}
	}
}

// TestTraversalAutoPolicy pins the Auto threshold: tiny source counts stay
// per-source, larger ones batch.
func TestTraversalAutoPolicy(t *testing.T) {
	cases := []struct {
		mode TraversalMode
		k    int
		want bool
	}{
		{TraversalAuto, 1, false},
		{TraversalAuto, batchMinSources - 1, false},
		{TraversalAuto, batchMinSources, true},
		{TraversalAuto, 1000, true},
		{TraversalPerSource, 1000, false},
		{TraversalBatched, 1, true},
		{TraversalBatched, 0, false},
	}
	for _, c := range cases {
		if got := c.mode.batched(c.k); got != c.want {
			t.Errorf("%v.batched(%d) = %v, want %v", c.mode, c.k, got, c.want)
		}
	}
}
