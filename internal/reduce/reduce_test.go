package reduce

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bfs"
	"repro/internal/graph"
)

// randomMixed builds a connected graph that exercises all reduction stages:
// a random core plus attached twins, chains (dangling/cycle/parallel) and
// triangle-capped nodes.
func randomMixed(rng *rand.Rand) *graph.Graph {
	nc := rng.Intn(8) + 5
	b := graph.NewGrowingBuilder()
	for i := 1; i < nc; i++ {
		_ = b.AddEdge(int32(rng.Intn(i)), int32(i))
	}
	for i := 0; i < 2*nc; i++ {
		_ = b.AddEdge(int32(rng.Intn(nc)), int32(rng.Intn(nc)))
	}
	next := int32(nc)
	// Twin leaves.
	for c := 0; c < rng.Intn(3); c++ {
		hub := int32(rng.Intn(nc))
		for j := 0; j < rng.Intn(3)+2; j++ {
			_ = b.AddEdge(hub, next)
			next++
		}
	}
	// Chains.
	for c := 0; c < rng.Intn(4); c++ {
		l := rng.Intn(4) + 1
		u := int32(rng.Intn(nc))
		prev := u
		for j := 0; j < l; j++ {
			_ = b.AddEdge(prev, next)
			prev = next
			next++
		}
		switch rng.Intn(3) {
		case 0:
		case 1:
			_ = b.AddEdge(prev, u)
		case 2:
			v := int32(rng.Intn(nc))
			if v != u {
				_ = b.AddEdge(prev, v)
			}
		}
	}
	// Redundant 3-degree candidates: a fresh node attached to a triangle.
	for c := 0; c < rng.Intn(3); c++ {
		x := int32(rng.Intn(nc))
		y := int32(rng.Intn(nc))
		z := int32(rng.Intn(nc))
		if x == y || y == z || x == z {
			continue
		}
		_ = b.AddEdge(x, y)
		_ = b.AddEdge(y, z)
		_ = b.AddEdge(x, z)
		_ = b.AddEdge(next, x)
		_ = b.AddEdge(next, y)
		_ = b.AddEdge(next, z)
		next++
	}
	return b.Build()
}

func allOptions() []Options {
	return []Options{
		{},
		{Twins: true},
		{Chains: true},
		{Redundant: true},
		{Twins: true, Chains: true},
		{Chains: true, Redundant: true},
		All(),
	}
}

// Property: for every stage combination, (1) distances between kept nodes
// are preserved by the reduced graph, and (2) Scatter+Extend reproduces the
// original-graph BFS distances for every node, from every kept source.
func TestReductionPreservesAndExtends(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomMixed(rng)
		if !graph.IsConnected(g) {
			g = graph.Connect(g)
		}
		n := g.NumNodes()
		apFull := allPairs(g)
		for _, opts := range allOptions() {
			red, err := Run(g, opts)
			if err != nil {
				return false
			}
			// Sanity: maps are mutually inverse, events cover removed.
			removed := 0
			for v := 0; v < n; v++ {
				if red.ToNew[v] == -1 {
					removed++
				} else if red.ToOld[red.ToNew[v]] != int32(v) {
					return false
				}
			}
			if removed != red.NumRemoved() || removed != red.Stats.Removed() {
				return false
			}
			distR := make([]int32, red.G.NumNodes())
			distOrig := make([]int32, n)
			for srcR := 0; srcR < red.G.NumNodes(); srcR++ {
				_ = bfs.WDistancesCtx(context.Background(), red.G, int32(srcR), distR, nil)
				srcOrig := red.ToOld[srcR]
				// Kept-kept distances preserved.
				for wR := 0; wR < red.G.NumNodes(); wR++ {
					if distR[wR] != apFull[srcOrig][red.ToOld[wR]] {
						return false
					}
				}
				// Extension reproduces everything else.
				red.Scatter(distR, distOrig)
				red.Extend(distOrig)
				for v := 0; v < n; v++ {
					want := apFull[srcOrig][v]
					if int32(v) == srcOrig {
						want = 0
					}
					// The twin self-correction: d(rep, twin) where src is
					// the rep must be the group distance — which equals
					// the true distance, so no exception needed.
					if distOrig[v] != want {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestRunSkipsChainsOnPurePath(t *testing.T) {
	// A pure path has no anchors; the chain stage must be skipped, not
	// crash, and the graph must survive unreduced by that stage.
	g := graph.FromEdges(4, [][2]int32{{0, 1}, {1, 2}, {2, 3}})
	red, err := Run(g, All())
	if err != nil {
		t.Fatal(err)
	}
	if red.Stats.ChainNodes != 0 {
		t.Errorf("ChainNodes = %d, want 0 (stage skipped)", red.Stats.ChainNodes)
	}
	// Twins stage still applies: leaves 0 and 3 are not twins here (their
	// neighbours differ), so nothing is removed at all.
	if red.G.NumNodes() != 4 {
		t.Errorf("reduced nodes = %d, want 4", red.G.NumNodes())
	}
}

func TestStatsCountingPerStage(t *testing.T) {
	// Hub 0 with two twin leaves and a dangling chain; core is a triangle
	// with a redundant node 8 attached. Note 5/6 and 7/8 also form closed
	// twin pairs, so stages are asserted in isolation.
	g := graph.FromEdges(9, [][2]int32{
		{0, 1}, {0, 2}, // twin leaves
		{0, 3}, {3, 4}, // dangling chain
		{0, 5}, {0, 6}, {5, 6}, {5, 7}, {6, 7}, // core with triangle 5-6-7
		{8, 5}, {8, 6}, {8, 7}, // redundant 3-degree node
	})
	redT, err := Run(g, Options{Twins: true})
	if err != nil {
		t.Fatal(err)
	}
	// Twin groups: leaves {1,2}, closed pair {5,6}, closed pair {7,8}.
	if redT.Stats.IdenticalNodes != 3 {
		t.Errorf("IdenticalNodes = %d, want 3", redT.Stats.IdenticalNodes)
	}
	if redT.Stats.TwinGroups != 3 {
		t.Errorf("TwinGroups = %d, want 3", redT.Stats.TwinGroups)
	}

	redC, err := Run(g, Options{Chains: true})
	if err != nil {
		t.Fatal(err)
	}
	// Chain interiors: the dangling run 3-4 plus the leaf twins 1 and 2
	// (each a singleton dangling chain).
	if redC.Stats.ChainNodes != 4 {
		t.Errorf("ChainNodes = %d, want 4", redC.Stats.ChainNodes)
	}

	redR, err := Run(g, Options{Redundant: true})
	if err != nil {
		t.Fatal(err)
	}
	if redR.Stats.RedundantNodes < 1 {
		t.Errorf("RedundantNodes = %d, want >= 1", redR.Stats.RedundantNodes)
	}

	redAll, err := Run(g, All())
	if err != nil {
		t.Fatal(err)
	}
	if redAll.G.NumNodes()+redAll.Stats.Removed() != g.NumNodes() {
		t.Errorf("node accounting broken: %d + %d != %d",
			redAll.G.NumNodes(), redAll.Stats.Removed(), g.NumNodes())
	}
}

func TestIdenticalChainClassification(t *testing.T) {
	// Two equal-length chains between 0 and 3 → Type-4 identical chains.
	g := graph.FromEdges(10, [][2]int32{
		{0, 1}, {1, 3}, // chain A interior {1}
		{0, 2}, {2, 3}, // chain B interior {2}
		{0, 4}, {0, 5}, {4, 5}, // anchor stubs
		{3, 6}, {3, 7}, {6, 7},
		{4, 8}, {5, 8}, {6, 9}, {7, 9},
	})
	red, err := Run(g, Options{Chains: true})
	if err != nil {
		t.Fatal(err)
	}
	if red.Stats.IdenticalChainNodes != 2 {
		t.Errorf("IdenticalChainNodes = %d, want 2", red.Stats.IdenticalChainNodes)
	}
}

func TestEventsAnchorsAndRemoved(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g := graph.Connect(randomMixed(rng))
	red, err := Run(g, All())
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int32]bool{}
	for _, e := range red.Events {
		for _, r := range e.Removed() {
			if seen[r] {
				t.Fatalf("node %d removed twice", r)
			}
			seen[r] = true
			if red.ToNew[r] != -1 {
				t.Fatalf("removed node %d still in reduced graph", r)
			}
		}
		if len(e.Anchors()) == 0 {
			t.Fatal("event without anchors")
		}
	}
	if len(seen) != red.NumRemoved() {
		t.Fatalf("events removed %d nodes, expected %d", len(seen), red.NumRemoved())
	}
}

// allPairs is the full BFS distance matrix of a small graph; memory is Θ(n²).
func allPairs(g *graph.Graph) [][]int32 {
	out := make([][]int32, g.NumNodes())
	for v := range out {
		out[v] = make([]int32, g.NumNodes())
		bfs.Distances(g, graph.NodeID(v), out[v], nil)
	}
	return out
}
