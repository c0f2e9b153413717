package bfs

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/par"
)

func cancelTestGraph(t *testing.T) *graph.Graph {
	t.Helper()
	return gen.Community(4000, 7)
}

func cancelTestWGraph(t *testing.T) *graph.WGraph {
	t.Helper()
	g := cancelTestGraph(t)
	b := graph.NewWBuilder(g.NumNodes())
	for u := 0; u < g.NumNodes(); u++ {
		for _, v := range g.Neighbors(graph.NodeID(u)) {
			if graph.NodeID(u) < v {
				w := int32(1 + (u+int(v))%3)
				b.AddEdge(graph.NodeID(u), v, w)
			}
		}
	}
	return b.Build()
}

func TestDistancesCtxMatchesPlain(t *testing.T) {
	g := cancelTestGraph(t)
	n := g.NumNodes()
	want := make([]int32, n)
	got := make([]int32, n)
	Distances(g, 3, want, nil)
	if err := DistancesCtx(context.Background(), g, 3, got, nil); err != nil {
		t.Fatalf("live ctx: %v", err)
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("dist[%d]: plain %d vs ctx %d", i, want[i], got[i])
		}
	}
}

func TestDistancesCtxPreCanceled(t *testing.T) {
	g := cancelTestGraph(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	dist := make([]int32, g.NumNodes())
	err := DistancesCtx(ctx, g, 0, dist, nil)
	if !errors.Is(err, par.ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
}

func TestWDistancesCtxMatchesPlain(t *testing.T) {
	g := cancelTestWGraph(t)
	n := g.NumNodes()
	want := make([]int32, n)
	got := make([]int32, n)
	wDistancesDone(g, 5, want, nil, nil) // the kernel with no done channel
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := WDistancesCtx(ctx, g, 5, got, nil); err != nil {
		t.Fatalf("live ctx: %v", err)
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("dist[%d]: plain %d vs ctx %d", i, want[i], got[i])
		}
	}
}

func TestWDistancesCtxPreCanceled(t *testing.T) {
	g := cancelTestWGraph(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	dist := make([]int32, g.NumNodes())
	err := WDistancesCtx(ctx, g, 0, dist, nil)
	if !errors.Is(err, par.ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
}

// A live ctx that never fires leaves the batch driver's farness equal to
// plain per-source BFS sums.
func TestRunBatchesCtxMatchesPlain(t *testing.T) {
	g := cancelTestGraph(t)
	n := g.NumNodes()
	sources := make([]graph.NodeID, 0, 100)
	for i := 0; i < 100; i++ {
		sources = append(sources, graph.NodeID((i*37)%n))
	}
	plain := make([]int64, len(sources))
	dist := make([]int32, n)
	for i, src := range sources {
		Distances(g, src, dist, nil)
		plain[i], _ = Sum(dist)
	}
	withCtx := make([]int64, len(sources))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	err := RunBatchesCtx(ctx, g, sources, 4, func(_, base int, batch []graph.NodeID, rows [][]int32) {
		for lane := range batch {
			s, _ := Sum(rows[lane])
			withCtx[base+lane] = s
		}
	})
	if err != nil {
		t.Fatalf("live ctx run: %v", err)
	}
	for i := range plain {
		if plain[i] != withCtx[i] {
			t.Fatalf("farness[%d]: plain %d vs ctx %d", i, plain[i], withCtx[i])
		}
	}
}

func TestRunBatchesCtxCanceledMidRun(t *testing.T) {
	g := cancelTestGraph(t)
	n := g.NumNodes()
	var sources []graph.NodeID
	for i := 0; i < 64*20; i++ {
		sources = append(sources, graph.NodeID(i%n))
	}
	ctx, cancel := context.WithCancel(context.Background())
	var handled atomic.Int64 // the handler runs concurrently from both workers
	err := RunBatchesCtx(ctx, g, sources, 2, func(_, _ int, _ []graph.NodeID, _ [][]int32) {
		if handled.Add(1) == 2 {
			cancel()
		}
	})
	if !errors.Is(err, par.ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	if int(handled.Load()) >= len(sources)/MSBFSWidth {
		t.Fatalf("cancellation did not stop the driver (handled %d batches)", handled.Load())
	}
}

// The weighted driver under a live ctx matches plain per-source Dial sums.
func TestRunBatchesWCtxMatchesPlain(t *testing.T) {
	g := cancelTestWGraph(t)
	sources := []graph.NodeID{0, 17, 99, 1033, 2048}
	plain := make([]int64, len(sources))
	dist := make([]int32, g.NumNodes())
	for i, src := range sources {
		wDistancesDone(g, src, dist, nil, nil)
		plain[i], _ = Sum(dist)
	}
	withCtx := make([]int64, len(sources))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	err := RunBatchesWCtx(ctx, g, sources, 2, func(_, base int, batch []graph.NodeID, rows [][]int32) {
		for lane := range batch {
			s, _ := Sum(rows[lane])
			withCtx[base+lane] = s
		}
	})
	if err != nil {
		t.Fatalf("live ctx run: %v", err)
	}
	for i := range plain {
		if plain[i] != withCtx[i] {
			t.Fatalf("farness[%d]: plain %d vs ctx %d", i, plain[i], withCtx[i])
		}
	}
}

func TestRunBatchesWCtxPreCanceled(t *testing.T) {
	g := cancelTestWGraph(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	handled := 0
	err := RunBatchesWCtx(ctx, g, []graph.NodeID{0, 1, 2}, 2, func(_, _ int, _ []graph.NodeID, _ [][]int32) {
		handled++
	})
	if !errors.Is(err, par.ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	if handled != 0 {
		t.Fatalf("pre-canceled run still handled %d batches", handled)
	}
}
