package core

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// These tests pin the cache-aware relabeling contract: Options.Relabel is a
// pure memory-layout knob. For every generator family, technique mix,
// traversal engine and worker count, an estimate with relabeling on is
// bit-for-bit the estimate with relabeling off — farness, exactness flags
// and sample counts alike.

func relabelFamilies() []struct {
	name string
	gen  func(int, int64) *graph.Graph
} {
	return []struct {
		name string
		gen  func(int, int64) *graph.Graph
	}{
		{"web", gen.Web},
		{"social", gen.Social},
		{"community", gen.Community},
		{"road", gen.Road},
	}
}

func relabelWorkerSweep() []int {
	out := []int{1, 2, 4}
	if p := runtime.GOMAXPROCS(0); p != 1 && p != 2 && p != 4 {
		out = append(out, p)
	}
	return out
}

// assertSameResult fails unless got matches want in every output field.
// Farness is compared with ==, not a tolerance: the relabeling contract is
// bit-identity, and every accumulator on the path is integer arithmetic.
func assertSameResult(t *testing.T, label string, want, got *Result) {
	t.Helper()
	if len(want.Farness) != len(got.Farness) {
		t.Fatalf("%s: length differs: want %d, got %d", label, len(want.Farness), len(got.Farness))
	}
	for v := range want.Farness {
		if want.Farness[v] != got.Farness[v] {
			t.Fatalf("%s: farness[%d] differs: want %v, got %v", label, v, want.Farness[v], got.Farness[v])
		}
		if want.Exact[v] != got.Exact[v] {
			t.Fatalf("%s: exact[%d] differs: want %v, got %v", label, v, want.Exact[v], got.Exact[v])
		}
	}
	if want.Stats.Samples != got.Stats.Samples {
		t.Fatalf("%s: samples differ: want %d, got %d", label, want.Stats.Samples, got.Stats.Samples)
	}
}

// TestEstimateRelabelBitIdentical is the acceptance property of the
// relabeling tentpole: Estimate with each relabel mode equals Estimate
// without, across all four families, the global and cumulative estimators,
// every traversal engine, and 1/2/4/GOMAXPROCS workers.
func TestEstimateRelabelBitIdentical(t *testing.T) {
	techs := []struct {
		name string
		t    Technique
	}{
		{"ICR", TechICR},
		{"cumulative", TechCumulative},
	}
	travs := []TraversalMode{TraversalAuto, TraversalPerSource, TraversalBatched}
	for _, fam := range relabelFamilies() {
		g := graph.Connect(fam.gen(3000, 42))
		for _, tech := range techs {
			for _, trav := range travs {
				base, err := Estimate(g, Options{
					Techniques:     tech.t,
					SampleFraction: 0.2,
					Seed:           7,
					Workers:        1,
					Traversal:      trav,
				})
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", fam.name, tech.name, trav, err)
				}
				for _, mode := range []graph.RelabelMode{graph.RelabelDegree, graph.RelabelBFS} {
					for _, w := range relabelWorkerSweep() {
						got, err := Estimate(g, Options{
							Techniques:     tech.t,
							SampleFraction: 0.2,
							Seed:           7,
							Workers:        w,
							Traversal:      trav,
							Relabel:        mode,
						})
						if err != nil {
							t.Fatalf("%s/%s/%s/%s workers=%d: %v", fam.name, tech.name, trav, mode, w, err)
						}
						label := fmt.Sprintf("%s/%s/%s/%s workers=%d", fam.name, tech.name, trav, mode, w)
						assertSameResult(t, label, base, got)
					}
				}
			}
		}
	}
}

// hybridFraction samples fewer than batchMinSources sources of the
// 2000–3000-node test graphs, so Auto runs the direction-optimising
// per-source kernel instead of batching.
const hybridFraction = 0.0015

// TestEstimateHybridMatchesPerSource pins the direction-optimising kernel's
// half of the contract on its own: Auto below the batching threshold (the
// hybrid kernel) changes no output relative to the plain per-source engine
// (BFS levels are unique, so push and pull produce the same distance rows).
func TestEstimateHybridMatchesPerSource(t *testing.T) {
	for _, fam := range relabelFamilies() {
		g := graph.Connect(fam.gen(3000, 9))
		for _, tech := range []Technique{0, TechICR, TechCumulative} {
			base, err := Estimate(g, Options{Techniques: tech, SampleFraction: hybridFraction, Seed: 3, Traversal: TraversalPerSource})
			if err != nil {
				t.Fatalf("%s/%v: %v", fam.name, tech, err)
			}
			got, err := Estimate(g, Options{Techniques: tech, SampleFraction: hybridFraction, Seed: 3})
			if err != nil {
				t.Fatalf("%s/%v hybrid: %v", fam.name, tech, err)
			}
			// The global estimators' one traversal unit must stay below the
			// batching threshold; the cumulative one spreads its samples
			// (cut vertices included) over many blocks.
			if tech&TechBiCC == 0 && got.Stats.Samples >= batchMinSources {
				t.Fatalf("%s/%v: %d samples would batch; the hybrid kernel is not under test", fam.name, tech, got.Stats.Samples)
			}
			assertSameResult(t, fmt.Sprintf("%s/%v hybrid-vs-per-source", fam.name, tech), base, got)
		}
	}
}

// TestRandomSamplingHybridMatches covers the unreduced baseline path: the
// hybrid kernel behind Auto per-source sampling produces the same result as
// the FIFO kernel.
func TestRandomSamplingHybridMatches(t *testing.T) {
	for _, fam := range relabelFamilies() {
		g := graph.Connect(fam.gen(2000, 11))
		base := RandomSamplingMode(g, hybridFraction, 2, 5, TraversalPerSource)
		got := RandomSamplingMode(g, hybridFraction, 2, 5, TraversalAuto)
		if got.Stats.Samples >= batchMinSources {
			t.Fatalf("%s: %d samples would batch; the hybrid kernel is not under test", fam.name, got.Stats.Samples)
		}
		assertSameResult(t, fam.name+"/random-hybrid", base, got)
	}
}
