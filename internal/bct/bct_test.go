package bct

import (
	"context"
	"math/rand"
	"testing/quick"

	"testing"

	"repro/internal/bfs"
	"repro/internal/bicc"
	"repro/internal/graph"
)

// chainOfTriangles builds k triangles glued in a chain at cut vertices:
// 0-1-2, 2-3-4, 4-5-6, ... Node 2i is shared between triangle i-1 and i.
func chainOfTriangles(k int) *graph.WGraph {
	b := graph.NewWBuilder(2*k + 1)
	for i := 0; i < k; i++ {
		a := int32(2 * i)
		_ = b.AddEdge(a, a+1, 1)
		_ = b.AddEdge(a+1, a+2, 1)
		_ = b.AddEdge(a, a+2, 1)
	}
	return b.Build()
}

func TestNewTreeStructure(t *testing.T) {
	g := chainOfTriangles(3)
	d := bicc.Decompose(g)
	if d.NumBlocks() != 3 {
		t.Fatalf("blocks = %d, want 3", d.NumBlocks())
	}
	tree := NewTree(d, 0)
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(tree.Cuts) != 2 {
		t.Fatalf("cuts = %v, want nodes 2 and 4", tree.Cuts)
	}
	if len(tree.Order) != 3 {
		t.Fatalf("order = %v", tree.Order)
	}
	if tree.ParentCut[tree.Root] != -1 {
		t.Error("root must have no parent cut")
	}
	// Each non-root block has a parent cut that belongs to it.
	for _, b := range tree.Order[1:] {
		pc := tree.ParentCut[b]
		if pc < 0 || tree.CutPos(b, pc) < 0 {
			t.Errorf("block %d: bad parent cut %d", b, pc)
		}
	}
}

// aggregateExact feeds the DP with exact per-block data for a fully known
// graph and checks the farness identity for every node.
func TestAggregateExactIdentity(t *testing.T) {
	for k := 1; k <= 4; k++ {
		g := chainOfTriangles(k)
		checkAggregate(t, g)
	}
	// A tree of blocks with branching: star of triangles sharing node 0.
	b := graph.NewWBuilder(7)
	for i := 0; i < 3; i++ {
		x := int32(1 + 2*i)
		_ = b.AddEdge(0, x, 1)
		_ = b.AddEdge(0, x+1, 1)
		_ = b.AddEdge(x, x+1, 1)
	}
	checkAggregate(t, b.Build())
	// Mixed weights.
	wb := graph.NewWBuilder(6)
	_ = wb.AddEdge(0, 1, 2)
	_ = wb.AddEdge(1, 2, 3)
	_ = wb.AddEdge(0, 2, 1)
	_ = wb.AddEdge(2, 3, 4)
	_ = wb.AddEdge(3, 4, 1)
	_ = wb.AddEdge(4, 5, 2)
	_ = wb.AddEdge(3, 5, 2)
	checkAggregate(t, wb.Build())
}

func checkAggregate(t *testing.T, g *graph.WGraph) {
	t.Helper()
	n := g.NumNodes()
	d := bicc.Decompose(g)
	tree := NewTree(d, 0)
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	ap := allPairsW(g)

	nb := d.NumBlocks()
	// Home block per node.
	home := make([]int32, n)
	for v := 0; v < n; v++ {
		if ci := tree.CutIndex[v]; ci >= 0 {
			home[v] = tree.HomeBlock[ci]
		} else {
			home[v] = d.BlocksOf[v][0]
		}
	}
	in := &Inputs{
		Pop:     make([]int64, nb),
		SumDist: make([][]int64, nb),
		CutDist: make([][][]int32, nb),
	}
	for v := 0; v < n; v++ {
		in.Pop[home[v]]++
	}
	for b := 0; b < nb; b++ {
		cuts := tree.BlockCuts[b]
		in.SumDist[b] = make([]int64, len(cuts))
		in.CutDist[b] = make([][]int32, len(cuts))
		for i, ci := range cuts {
			cv := tree.Cuts[ci]
			for v := 0; v < n; v++ {
				if home[v] == int32(b) {
					in.SumDist[b][i] += int64(ap[cv][v])
				}
			}
			in.CutDist[b][i] = make([]int32, len(cuts))
			for j, cj := range cuts {
				in.CutDist[b][i][j] = ap[cv][tree.Cuts[cj]]
			}
		}
	}
	out := tree.Aggregate(in)
	if out.TotalPop != int64(n) {
		t.Fatalf("TotalPop = %d, want %d", out.TotalPop, n)
	}
	// farness(v) must equal inBlock(v) + Σ cuts (Wout·d(v,c) + Dout).
	for v := 0; v < n; v++ {
		b := home[v]
		var got int64
		for w := 0; w < n; w++ {
			if home[w] == b {
				got += int64(ap[v][w])
			}
		}
		for li, ci := range tree.BlockCuts[b] {
			cv := tree.Cuts[ci]
			got += out.Wout[b][li]*int64(ap[v][cv]) + out.Dout[b][li]
		}
		var want int64
		for w := 0; w < n; w++ {
			want += int64(ap[v][w])
		}
		if got != want {
			t.Fatalf("node %d: aggregated farness %d, want %d", v, got, want)
		}
	}
}

// Property: the aggregation identity holds on random connected weighted
// graphs with arbitrary block structures.
func TestAggregateRandomGraphs(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(30) + 3
		b := graph.NewWBuilder(n)
		for i := 1; i < n; i++ {
			_ = b.AddEdge(int32(rng.Intn(i)), int32(i), int32(rng.Intn(3)+1))
		}
		extra := rng.Intn(n)
		for i := 0; i < extra; i++ {
			_ = b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)), int32(rng.Intn(3)+1))
		}
		g := b.Build()
		d := bicc.Decompose(g)
		if d.NumBlocks() == 0 {
			return true
		}
		tree := NewTree(d, 0)
		if tree.Validate() != nil {
			return false
		}
		ap := allPairsW(g)
		nb := d.NumBlocks()
		home := make([]int32, n)
		for v := 0; v < n; v++ {
			if ci := tree.CutIndex[v]; ci >= 0 {
				home[v] = tree.HomeBlock[ci]
			} else {
				home[v] = d.BlocksOf[v][0]
			}
		}
		in := &Inputs{
			Pop:     make([]int64, nb),
			SumDist: make([][]int64, nb),
			CutDist: make([][][]int32, nb),
		}
		for v := 0; v < n; v++ {
			in.Pop[home[v]]++
		}
		for bid := 0; bid < nb; bid++ {
			cuts := tree.BlockCuts[bid]
			in.SumDist[bid] = make([]int64, len(cuts))
			in.CutDist[bid] = make([][]int32, len(cuts))
			for i, ci := range cuts {
				cv := tree.Cuts[ci]
				for v := 0; v < n; v++ {
					if home[v] == int32(bid) {
						in.SumDist[bid][i] += int64(ap[cv][v])
					}
				}
				in.CutDist[bid][i] = make([]int32, len(cuts))
				for j, cj := range cuts {
					in.CutDist[bid][i][j] = ap[cv][tree.Cuts[cj]]
				}
			}
		}
		out := tree.Aggregate(in)
		if out.TotalPop != int64(n) {
			return false
		}
		for v := 0; v < n; v++ {
			bid := home[v]
			var got int64
			for w := 0; w < n; w++ {
				if home[w] == bid {
					got += int64(ap[v][w])
				}
			}
			for li, ci := range tree.BlockCuts[bid] {
				got += out.Wout[bid][li]*int64(ap[v][tree.Cuts[ci]]) + out.Dout[bid][li]
			}
			var want int64
			for w := 0; w < n; w++ {
				want += int64(ap[v][w])
			}
			if got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// allPairsW is the full Dial distance matrix of a small weighted graph;
// memory is Θ(n²).
func allPairsW(g *graph.WGraph) [][]int32 {
	out := make([][]int32, g.NumNodes())
	for v := range out {
		out[v] = make([]int32, g.NumNodes())
		_ = bfs.WDistancesCtx(context.Background(), g, graph.NodeID(v), out[v], nil)
	}
	return out
}
