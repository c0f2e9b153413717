package bfs

import (
	"context"
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/queue"
)

func path(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < n-1; i++ {
		_ = b.AddEdge(int32(i), int32(i+1))
	}
	return b.Build()
}

func randomConnected(rng *rand.Rand, n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 1; i < n; i++ {
		_ = b.AddEdge(int32(rng.Intn(i)), int32(i)) // random spanning tree
	}
	extra := rng.Intn(2 * n)
	for i := 0; i < extra; i++ {
		_ = b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
	}
	return b.Build()
}

// wDistances is an uninterruptible Dial run from src, the per-source
// reference the weighted multi-source kernels are checked against. b may be
// nil.
func wDistances(g *graph.WGraph, src graph.NodeID, dist []int32, b *queue.Bucket) {
	_ = WDistancesCtx(context.Background(), g, src, dist, b)
}

// perLane adapts a per-lane visitor to the mask-level kernel interface, so
// tests can check the exactly-once contract lane by lane.
func perLane(visit func(v graph.NodeID, lane int, d int32)) func(v graph.NodeID, mask uint64, d int32) {
	return func(v graph.NodeID, mask uint64, d int32) {
		for m := mask; m != 0; m &= m - 1 {
			visit(v, bits.TrailingZeros64(m), d)
		}
	}
}

// multiSource runs one unweighted multi-source sweep on fresh scratch,
// reporting every reached (lane, node) pair separately.
func multiSource(g *graph.Graph, sources []graph.NodeID, visit func(v graph.NodeID, lane int, d int32)) {
	MultiSourceMasksInto(g, sources, NewMSScratch(g.NumNodes(), 1), perLane(visit))
}

// multiSourceW is multiSource over the lane-masked Dial kernel.
func multiSourceW(g *graph.WGraph, sources []graph.NodeID, visit func(v graph.NodeID, lane int, d int32)) {
	multiSourceWMasksInto(g, sources, NewMSScratch(g.NumNodes(), g.MaxWeight()), perLane(visit))
}

func TestDistancesPath(t *testing.T) {
	g := path(6)
	dist := make([]int32, 6)
	Distances(g, 0, dist, nil)
	for i := int32(0); i < 6; i++ {
		if dist[i] != i {
			t.Errorf("dist[%d] = %d, want %d", i, dist[i], i)
		}
	}
	Distances(g, 3, dist, nil)
	want := []int32{3, 2, 1, 0, 1, 2}
	for i := range want {
		if dist[i] != want[i] {
			t.Errorf("dist[%d] = %d, want %d", i, dist[i], want[i])
		}
	}
}

func TestDistancesUnreachable(t *testing.T) {
	g := graph.FromEdges(4, [][2]int32{{0, 1}, {2, 3}})
	dist := make([]int32, 4)
	Distances(g, 0, dist, nil)
	if dist[2] != Unreached || dist[3] != Unreached {
		t.Error("nodes in other component should be Unreached")
	}
	sum, reached := Sum(dist)
	if sum != 1 || reached != 2 {
		t.Errorf("Sum = %d,%d want 1,2", sum, reached)
	}
}

func TestWDistancesWeightedPath(t *testing.T) {
	// 0 -5- 1 -1- 2, plus direct 0 -7- 2: shortest 0→2 is 6.
	g := graph.FromWeightedEdges(3, [][3]int32{{0, 1, 5}, {1, 2, 1}, {0, 2, 7}})
	dist := make([]int32, 3)
	wDistances(g, 0, dist, nil)
	if dist[0] != 0 || dist[1] != 5 || dist[2] != 6 {
		t.Fatalf("dist = %v, want [0 5 6]", dist)
	}
}

func TestWDistancesEqualsBFSOnUnweighted(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomConnected(rng, 50)
	wg := g.ToWeighted()
	d1 := make([]int32, 50)
	d2 := make([]int32, 50)
	Distances(g, 13, d1, nil)
	wDistances(wg, 13, d2, nil)
	for i := range d1 {
		if d1[i] != d2[i] {
			t.Fatalf("dist[%d]: BFS=%d Dial=%d", i, d1[i], d2[i])
		}
	}
	s := NewScratch(50, wg.MaxWeight())
	if err := WDistancesAutoCtx(context.Background(), wg, true, 13, s); err != nil {
		t.Fatal(err)
	}
	for i := range d1 {
		if d1[i] != s.Dist[i] {
			t.Fatalf("unweighted WDistancesAutoCtx dist[%d]: %d vs %d", i, s.Dist[i], d1[i])
		}
	}
}

// Property: Dial distances satisfy the triangle condition over every edge
// and match a reference Bellman-Ford on random weighted graphs.
func TestWDistancesAgainstBellmanFord(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(25) + 2
		b := graph.NewWBuilder(n)
		for i := 1; i < n; i++ {
			_ = b.AddEdge(int32(rng.Intn(i)), int32(i), int32(rng.Intn(6)+1))
		}
		for i := 0; i < n; i++ {
			_ = b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)), int32(rng.Intn(6)+1))
		}
		g := b.Build()
		src := int32(rng.Intn(n))
		dist := make([]int32, n)
		wDistances(g, src, dist, nil)

		// Bellman-Ford reference.
		const inf = int32(1 << 30)
		ref := make([]int32, n)
		for i := range ref {
			ref[i] = inf
		}
		ref[src] = 0
		for it := 0; it < n; it++ {
			changed := false
			g.Edges(func(u, v int32, w int32) {
				if ref[u]+w < ref[v] {
					ref[v] = ref[u] + w
					changed = true
				}
				if ref[v]+w < ref[u] {
					ref[u] = ref[v] + w
					changed = true
				}
			})
			if !changed {
				break
			}
		}
		for i := range ref {
			want := ref[i]
			if want == inf {
				want = Unreached
			}
			if dist[i] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: direction-optimising BFS agrees with plain BFS, with the
// scratch reused across traversals the way the per-source drivers reuse it.
func TestHybridDistancesMatchesBFS(t *testing.T) {
	s := &Scratch{}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(120) + 2
		g := randomConnected(rng, n)
		src := int32(rng.Intn(n))
		d1 := make([]int32, n)
		d2 := make([]int32, n)
		Distances(g, src, d1, nil)
		if err := HybridDistancesCtx(context.Background(), g, src, d2, s); err != nil {
			return false
		}
		for i := range d1 {
			if d1[i] != d2[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestHybridDistancesDenseBottomUp(t *testing.T) {
	// A dense graph with a hub-heavy frontier drives mf past mu/alpha on the
	// first level, so the pull branch actually runs.
	rng := rand.New(rand.NewSource(3))
	n := 60
	b := graph.NewBuilder(n)
	for i := 1; i < n; i++ {
		_ = b.AddEdge(int32(rng.Intn(i)), int32(i))
	}
	for i := 0; i < 6*n; i++ {
		_ = b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
	}
	g := b.Build()
	d1 := make([]int32, n)
	d2 := make([]int32, n)
	Distances(g, 0, d1, nil)
	if err := HybridDistancesCtx(context.Background(), g, 0, d2, nil); err != nil {
		t.Fatal(err)
	}
	for i := range d1 {
		if d1[i] != d2[i] {
			t.Fatalf("dist[%d]: BFS=%d hybrid=%d", i, d1[i], d2[i])
		}
	}
}

// WHybridDistancesBFSCtx on an all-weights-one graph matches the plain
// unweighted dispatch of WDistancesAutoCtx, with both scratches reused across
// sources the way the per-source drivers reuse them.
func TestWHybridAutoMatchesWAuto(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := 90
	g := randomConnected(rng, n)
	wg := g.ToWeighted()
	s1 := NewScratch(n, wg.MaxWeight())
	s2 := NewScratch(n, wg.MaxWeight())
	ctx := context.Background()
	for src := int32(0); src < 10; src++ {
		if err := WDistancesAutoCtx(ctx, wg, true, src, s1); err != nil {
			t.Fatal(err)
		}
		if err := WHybridDistancesBFSCtx(ctx, wg, src, s2.Dist, s2); err != nil {
			t.Fatal(err)
		}
		for i := range s1.Dist {
			if s1.Dist[i] != s2.Dist[i] {
				t.Fatalf("src %d dist[%d]: auto=%d hybrid=%d", src, i, s1.Dist[i], s2.Dist[i])
			}
		}
	}
}

func TestExactFarnessPath(t *testing.T) {
	// Path 0-1-2-3: farness = [6,4,4,6].
	g := path(4)
	far := ExactFarness(g, 2)
	want := []float64{6, 4, 4, 6}
	for i := range want {
		if far[i] != want[i] {
			t.Errorf("farness[%d] = %v, want %v", i, far[i], want[i])
		}
	}
}

// Farness summed from the weighted kernels on the all-weights-one copy of g
// — both the BFS and the Dial side of WDistancesAutoCtx — equals the
// unweighted oracle.
func TestExactFarnessWMatchesUnweighted(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := randomConnected(rng, 40)
	wg := g.ToWeighted()
	f1 := ExactFarness(g, 3)
	s := NewScratch(40, wg.MaxWeight())
	for _, unweighted := range []bool{true, false} {
		for v := range f1 {
			if err := WDistancesAutoCtx(context.Background(), wg, unweighted, graph.NodeID(v), s); err != nil {
				t.Fatal(err)
			}
			if sum, _ := Sum(s.Dist); float64(sum) != f1[v] {
				t.Fatalf("unweighted=%v farness[%d]: %v vs %v", unweighted, v, sum, f1[v])
			}
		}
	}
}

func TestEccentricity(t *testing.T) {
	g := path(5)
	dist := make([]int32, 5)
	Distances(g, 0, dist, nil)
	if Eccentricity(dist) != 4 {
		t.Errorf("Eccentricity = %d, want 4", Eccentricity(dist))
	}
}

func TestAllPairsSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := randomConnected(rng, 30)
	ap := make([][]int32, 30)
	for v := range ap {
		ap[v] = make([]int32, 30)
		Distances(g, graph.NodeID(v), ap[v], nil)
	}
	for u := 0; u < 30; u++ {
		for v := 0; v < 30; v++ {
			if ap[u][v] != ap[v][u] {
				t.Fatalf("asymmetric distances %d,%d", u, v)
			}
		}
		if ap[u][u] != 0 {
			t.Fatalf("d(%d,%d) != 0", u, u)
		}
	}
}
