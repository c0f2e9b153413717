package bfs

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

// pointToPoint is an uninterruptible PointToPointCtx query.
func pointToPoint(g *graph.Graph, s, t graph.NodeID) int32 {
	d, _ := PointToPointCtx(context.Background(), g, s, t)
	return d
}

func TestPointToPointBasics(t *testing.T) {
	g := graph.FromEdges(6, [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 4}})
	cases := []struct {
		s, t graph.NodeID
		want int32
	}{
		{0, 0, 0}, {0, 1, 1}, {0, 4, 4}, {4, 0, 4}, {1, 3, 2},
		{0, 5, -1}, // node 5 isolated
	}
	for _, c := range cases {
		if got := pointToPoint(g, c.s, c.t); got != c.want {
			t.Errorf("d(%d,%d) = %d, want %d", c.s, c.t, got, c.want)
		}
	}
}

// Edge cases that must return without allocating the full n-sized scratch:
// src == dst (any graph), an isolated endpoint (the cheap disconnected
// case), and the single-node graph.
func TestPointToPointEdgeCasesAllocFree(t *testing.T) {
	g := graph.FromEdges(5, [][2]int32{{0, 1}, {1, 2}}) // nodes 3, 4 isolated
	single := graph.FromEdges(1, nil)
	cases := []struct {
		name string
		g    *graph.Graph
		s, t graph.NodeID
		want int32
	}{
		{"src==dst", g, 2, 2, 0},
		{"isolated src", g, 3, 0, Unreached},
		{"isolated dst", g, 0, 4, Unreached},
		{"both isolated", g, 3, 4, Unreached},
		{"single-node", single, 0, 0, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := pointToPoint(c.g, c.s, c.t); got != c.want {
				t.Fatalf("d(%d,%d) = %d, want %d", c.s, c.t, got, c.want)
			}
			allocs := testing.AllocsPerRun(20, func() { pointToPoint(c.g, c.s, c.t) })
			if allocs != 0 {
				t.Fatalf("d(%d,%d) allocated %.0f objects, want 0", c.s, c.t, allocs)
			}
		})
	}
}

// Disconnected pairs with non-isolated endpoints still answer -1 (via the
// search), and the search stops after exploring the smaller component.
func TestPointToPointDisconnectedComponents(t *testing.T) {
	g := graph.FromEdges(7, [][2]int32{{0, 1}, {1, 2}, {3, 4}, {4, 5}, {5, 6}})
	for _, c := range [][2]graph.NodeID{{0, 3}, {3, 0}, {2, 6}} {
		if got := pointToPoint(g, c[0], c[1]); got != Unreached {
			t.Fatalf("d(%d,%d) = %d, want %d", c[0], c[1], got, Unreached)
		}
	}
}

// Property: bidirectional distance equals BFS distance for random pairs on
// random graphs (including disconnected ones).
func TestPointToPointMatchesBFS(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(200) + 2
		b := graph.NewBuilder(n)
		m := rng.Intn(3 * n)
		for i := 0; i < m; i++ {
			_ = b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
		}
		g := b.Build()
		dist := make([]int32, n)
		for trial := 0; trial < 12; trial++ {
			s := graph.NodeID(rng.Intn(n))
			tt := graph.NodeID(rng.Intn(n))
			Distances(g, s, dist, nil)
			if got := pointToPoint(g, s, tt); got != dist[tt] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPointToPointVsBFS(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	g := randomConnected(rng, 30000)
	n := g.NumNodes()
	dist := make([]int32, n)
	b.Run("bidirectional", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pointToPoint(g, graph.NodeID(i%n), graph.NodeID((i*7919+13)%n))
		}
	})
	b.Run("full-bfs", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Distances(g, graph.NodeID(i%n), dist, nil)
		}
	})
}
