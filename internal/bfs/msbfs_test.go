package bfs

import (
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

func TestMultiSourceMatchesSequentialBFS(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomConnected(rng, 200)
	sources := []graph.NodeID{0, 5, 17, 42, 199}
	got := make(map[[2]int32]int32)
	multiSource(g, sources, func(v graph.NodeID, lane int, d int32) {
		key := [2]int32{int32(lane), v}
		if _, dup := got[key]; dup {
			t.Fatalf("duplicate visit for lane %d node %d", lane, v)
		}
		got[key] = d
	})
	dist := make([]int32, g.NumNodes())
	for lane, s := range sources {
		Distances(g, s, dist, nil)
		for v := 0; v < g.NumNodes(); v++ {
			want := dist[v]
			d, ok := got[[2]int32{int32(lane), int32(v)}]
			if want == Unreached {
				if ok {
					t.Fatalf("lane %d visited unreachable node %d", lane, v)
				}
				continue
			}
			if !ok || d != want {
				t.Fatalf("lane %d node %d: got %d,%v want %d", lane, v, d, ok, want)
			}
		}
	}
}

func TestMultiSourceDuplicateSources(t *testing.T) {
	g := graph.FromEdges(3, [][2]int32{{0, 1}, {1, 2}})
	counts := map[int]int{}
	multiSource(g, []graph.NodeID{1, 1}, func(v graph.NodeID, lane int, d int32) {
		counts[lane]++
	})
	if counts[0] != 3 || counts[1] != 3 {
		t.Fatalf("duplicate-source lanes should both cover the graph: %v", counts)
	}
}

func TestMultiSourceEmptyAndLimits(t *testing.T) {
	g := graph.FromEdges(2, [][2]int32{{0, 1}})
	multiSource(g, nil, func(graph.NodeID, int, int32) {
		t.Fatal("no sources should mean no visits")
	})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for >64 sources")
		}
	}()
	many := make([]graph.NodeID, 65)
	multiSource(g, many, func(graph.NodeID, int, int32) {})
}

// multiSourceFarness computes, for every node, the sum of distances from the
// given sources (the random-sampling accumulator of Algorithm 1) plus the
// exact farness of each source, with 64-wide mask sweeps accumulated the way
// the estimators do: acc[v] = Σ_s d(s,v) and far[i] = farness(sources[i])
// within the source's component.
func multiSourceFarness(g *graph.Graph, sources []graph.NodeID) (acc []int64, far []int64) {
	n := g.NumNodes()
	acc = make([]int64, n)
	far = make([]int64, len(sources))
	s := NewMSScratch(n, 1)
	for base := 0; base < len(sources); base += MSBFSWidth {
		hi := min(base+MSBFSWidth, len(sources))
		laneFar := far[base:hi]
		MultiSourceMasksInto(g, sources[base:hi], s, func(v graph.NodeID, mask uint64, d int32) {
			acc[v] += int64(d) * int64(bits.OnesCount64(mask))
			AccumulateLanes(laneFar, mask, int64(d))
		})
	}
	return acc, far
}

// Property: multiSourceFarness equals per-source BFS sums on random graphs
// with random batch sizes (crossing the 64-lane boundary).
func TestMultiSourceFarnessProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(150) + 2
		g := randomConnected(rng, n)
		k := rng.Intn(130) + 1
		if k > n {
			k = n
		}
		sources := make([]graph.NodeID, k)
		for i := range sources {
			sources[i] = graph.NodeID(rng.Intn(n))
		}
		acc, far := multiSourceFarness(g, sources)

		wantAcc := make([]int64, n)
		dist := make([]int32, n)
		for i, s := range sources {
			Distances(g, s, dist, nil)
			var sum int64
			for v, d := range dist {
				wantAcc[v] += int64(d)
				sum += int64(d)
			}
			if far[i] != sum {
				return false
			}
		}
		for v := range wantAcc {
			if acc[v] != wantAcc[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMultiSourceVsSequential(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := randomConnected(rng, 20000)
	n := g.NumNodes()
	sources := make([]graph.NodeID, 64)
	for i := range sources {
		sources[i] = graph.NodeID(rng.Intn(n))
	}
	b.Run("ms64", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var total int64
			multiSource(g, sources, func(_ graph.NodeID, _ int, d int32) { total += int64(d) })
		}
	})
	b.Run("seq64", func(b *testing.B) {
		dist := make([]int32, n)
		for i := 0; i < b.N; i++ {
			var total int64
			for _, s := range sources {
				Distances(g, s, dist, nil)
				sum, _ := Sum(dist)
				total += sum
			}
		}
	})
}

// A dense graph with a full 64-lane batch drives the level-sync kernel
// through its lane-masked bottom-up branch (mf exceeds mu/alpha on the
// first level); visits must still match sequential BFS exactly.
func TestMultiSourceDenseBottomUp(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	n := 400
	b := graph.NewBuilder(n)
	for i := 1; i < n; i++ {
		_ = b.AddEdge(int32(rng.Intn(i)), int32(i))
	}
	for i := 0; i < 20*n; i++ {
		_ = b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
	}
	g := b.Build()
	sources := make([]graph.NodeID, MSBFSWidth)
	for i := range sources {
		sources[i] = graph.NodeID(rng.Intn(n))
	}
	rows := make([][]int32, len(sources))
	for i := range rows {
		rows[i] = make([]int32, n)
		fill(rows[i])
	}
	multiSource(g, sources, func(v graph.NodeID, lane int, d int32) {
		if rows[lane][v] != Unreached {
			t.Fatalf("duplicate visit for lane %d node %d", lane, v)
		}
		rows[lane][v] = d
	})
	dist := make([]int32, n)
	for lane, s := range sources {
		Distances(g, s, dist, nil)
		for v := range dist {
			if rows[lane][v] != dist[v] {
				t.Fatalf("lane %d node %d: got %d want %d", lane, v, rows[lane][v], dist[v])
			}
		}
	}
}
