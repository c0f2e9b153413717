package reduce

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bfs"
	"repro/internal/graph"
)

// Property: the iterative pipeline preserves kept-kept distances and its
// extension reproduces original BFS distances — same contract as Run, on
// the same adversarial graphs.
func TestIterativePreservesAndExtends(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomMixed(rng)
		if !graph.IsConnected(g) {
			g = graph.Connect(g)
		}
		n := g.NumNodes()
		apFull := allPairs(g)
		red, err := RunIterative(g, All(), 0)
		if err != nil {
			return false
		}
		if red.G.NumNodes()+red.Stats.Removed() != n {
			return false
		}
		distR := make([]int32, red.G.NumNodes())
		distOrig := make([]int32, n)
		for srcR := 0; srcR < red.G.NumNodes(); srcR++ {
			_ = bfs.WDistancesCtx(context.Background(), red.G, int32(srcR), distR, nil)
			srcOrig := red.ToOld[srcR]
			for wR := 0; wR < red.G.NumNodes(); wR++ {
				if distR[wR] != apFull[srcOrig][red.ToOld[wR]] {
					return false
				}
			}
			red.Scatter(distR, distOrig)
			red.Extend(distOrig)
			for v := 0; v < n; v++ {
				if distOrig[v] != apFull[srcOrig][v] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// The cascade the single pass misses: an anchor with two dangling tails
// becomes a pendant after the first round and only the iterative pipeline
// removes it.
func TestIterativeCascades(t *testing.T) {
	// Core K4 {0,1,2,3}; node 4 hangs off 0 and carries two tails 5 and 6.
	g := graph.FromEdges(7, [][2]int32{
		{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3},
		{0, 4}, {4, 5}, {4, 6},
	})
	single, err := Run(g, Options{Chains: true})
	if err != nil {
		t.Fatal(err)
	}
	iter, err := RunIterative(g, Options{Chains: true}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Single pass: 5 and 6 are twin-less singleton tails of anchor 4
	// (degree 3), so only they go. Iterative: 4 becomes degree-1 after
	// its tails are gone and is swept in round 2.
	if single.G.NumNodes() != 5 {
		t.Fatalf("single pass kept %d nodes, want 5", single.G.NumNodes())
	}
	if iter.G.NumNodes() != 4 {
		t.Fatalf("iterative kept %d nodes, want 4 (the K4)", iter.G.NumNodes())
	}
	if iter.Stats.ExtraRounds < 1 {
		t.Fatalf("ExtraRounds = %d", iter.Stats.ExtraRounds)
	}
}

// Weighted chains carry offsets; check them against BFS explicitly.
func TestWeightedChainOffsets(t *testing.T) {
	// Path of tails: 0(K4 corner) - 4 - 5 - 6 where 4 also had a tail 7
	// removed in round 1, turning 4-5-6 into a weighted... simpler: build
	// a graph whose round-2 chain has non-unit weights via contraction:
	// K4 + pendant path 0-4-5, plus a parallel route 0-6-7-5 making 4,5
	// interior of parallel chains, then... Assert via the generic
	// property test instead; here just exercise WFind directly.
	wg := graph.FromWeightedEdges(5, [][3]int32{
		{0, 1, 2}, {1, 2, 3}, {2, 3, 1}, {0, 4, 1}, {3, 4, 1}, {0, 3, 9},
	})
	// Nodes 1,2 form a weighted chain between 0 and 3 (offsets 2, 5,
	// total 6); node 4 is interior of another chain (0-4-3, total 2).
	ch := wfindForTest(wg)
	if len(ch.Chains) != 2 {
		t.Fatalf("chains = %+v", ch.Chains)
	}
	for _, c := range ch.Chains {
		switch len(c.Interior) {
		case 2:
			if c.Offsets[0] != 2 || c.Offsets[1] != 5 || c.Total != 6 {
				t.Fatalf("long chain offsets = %v total %d", c.Offsets, c.Total)
			}
		case 1:
			if c.Offsets[0] != 1 || c.Total != 2 {
				t.Fatalf("short chain offsets = %v total %d", c.Offsets, c.Total)
			}
		default:
			t.Fatalf("unexpected chain %+v", c)
		}
	}
}
