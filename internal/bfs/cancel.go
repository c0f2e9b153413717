package bfs

import (
	"context"

	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/queue"
)

// This file holds the context-aware entry points of the per-source kernels.
// Each wraps the corresponding done-channel kernel: the traversal polls
// ctx.Done() every interruptEvery queue pops and bails early once it fires.
// A non-nil return wraps par.ErrCanceled and means dist holds a partial
// traversal that must be discarded; a nil return guarantees output
// bit-identical to an uninterrupted run (the poll never changes visit order).

// DistancesCtx is Distances with cooperative cancellation.
func DistancesCtx(ctx context.Context, g *graph.Graph, src graph.NodeID, dist []int32, q *queue.FIFO) error {
	offsets, adj := g.CSR()
	distancesDone(offsets, adj, src, dist, q, ctx.Done())
	return par.CtxErr(ctx)
}

// WDistancesCtx runs Dial's algorithm from src over the weighted graph g,
// filling dist with shortest-path lengths (Unreached where unreachable).
// dist must have length g.NumNodes(); b must have been created with at least
// the graph's maximum edge weight, or be nil.
func WDistancesCtx(ctx context.Context, g *graph.WGraph, src graph.NodeID, dist []int32, b *queue.Bucket) error {
	wDistancesDone(g, src, dist, b, ctx.Done())
	return par.CtxErr(ctx)
}

// WDistancesAutoCtx fills s.Dist from src, running BFS when the graph is
// unweighted (detected once by the caller and passed in) and Dial otherwise.
func WDistancesAutoCtx(ctx context.Context, g *graph.WGraph, unweighted bool, src graph.NodeID, s *Scratch) error {
	if unweighted {
		offsets, adj, _ := g.CSR()
		distancesDone(offsets, adj, src, s.Dist, s.Q, ctx.Done())
	} else {
		wDistancesDone(g, src, s.Dist, s.B, ctx.Done())
	}
	return par.CtxErr(ctx)
}
