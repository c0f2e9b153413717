package bfs

import (
	"context"
	"math/bits"

	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/par"
)

// BatchHandler consumes one completed multi-source batch. base is the index
// of batch[0] in the driver's source list, batch the ≤64 sources of this
// sweep, and rows[lane][v] the distance from batch[lane] to v (Unreached
// where unreachable). Handlers run concurrently from up to `workers`
// goroutines — one invocation per batch, identified by a stable worker
// index for callers that keep their own per-worker state. rows alias the
// worker's scratch and are only valid for the duration of the call.
type BatchHandler func(worker, base int, batch []graph.NodeID, rows [][]int32)

// batchScratch is the per-worker reusable state of the batch drivers: one
// multi-source scratch plus a 64-row distance slab, allocated once per
// worker and reused for every batch the worker claims.
type batchScratch struct {
	ms   *MSScratch
	slab []int32
	rows [][]int32
}

func newBatchScratch(n int, maxWeight int32) *batchScratch {
	b := &batchScratch{
		ms:   NewMSScratch(n, maxWeight),
		slab: make([]int32, MSBFSWidth*n),
		rows: make([][]int32, MSBFSWidth),
	}
	for i := range b.rows {
		b.rows[i] = b.slab[i*n : (i+1)*n : (i+1)*n]
	}
	return b
}

// numBatches returns how many ≤64-wide batches k sources split into.
func numBatches(k int) int { return (k + MSBFSWidth - 1) / MSBFSWidth }

// runBatches is the shared fan-out: split sources into ≤64-wide batches,
// hand batches to workers with dynamic scheduling (batch costs vary with
// how much the lanes' frontiers overlap), and run sweep+handle per batch
// on the worker's own scratch. Cancellation lands at two granularities:
// workers stop claiming batches once ctx is done, and the running sweep's
// kernel bails at its next frontier level (the scratch carries ctx.Done()).
// A non-nil error means the handler may have seen only a subset of batches
// and the caller must discard its accumulation.
func runBatches(ctx context.Context, n int, sources []graph.NodeID, workers int, maxWeight int32,
	sweep func(s *batchScratch, batch []graph.NodeID, rows [][]int32),
	handle BatchHandler) error {
	if len(sources) == 0 {
		return par.CtxErr(ctx)
	}
	if err := fault.Checkpoint(ctx, "bfs.batch"); err != nil {
		return err
	}
	nb := numBatches(len(sources))
	workers = par.Workers(workers)
	if workers > nb {
		workers = nb
	}
	done := ctx.Done()
	scratch := make([]*batchScratch, workers)
	for i := range scratch {
		scratch[i] = newBatchScratch(n, maxWeight)
		scratch[i].ms.SetDone(done)
	}
	return par.ForDynamicCtx(ctx, nb, workers, 1, func(worker, bi int) {
		base := bi * MSBFSWidth
		hi := base + MSBFSWidth
		if hi > len(sources) {
			hi = len(sources)
		}
		batch := sources[base:hi]
		s := scratch[worker]
		rows := s.rows[:len(batch)]
		sweep(s, batch, rows)
		if par.Interrupted(done) {
			return // rows are partial; don't hand them to the accumulator
		}
		handle(worker, base, batch, rows)
	})
}

// maskRowFill returns a mask-level visitor that scatters distances into the
// per-lane rows, with a fast path for the fully merged mask (all k lanes
// arriving together) that walks the rows directly instead of decoding bits.
func maskRowFill(rows [][]int32, k int) func(v graph.NodeID, mask uint64, d int32) {
	full := fullMask(k)
	return func(v graph.NodeID, mask uint64, d int32) {
		if mask == full {
			for lane := 0; lane < k; lane++ {
				rows[lane][v] = d
			}
			return
		}
		for m := mask; m != 0; m &= m - 1 {
			rows[bits.TrailingZeros64(m)][v] = d
		}
	}
}

// fullMask is the bitmask with the low k lanes set.
func fullMask(k int) uint64 {
	if k >= MSBFSWidth {
		return ^uint64(0)
	}
	return uint64(1)<<uint(k) - 1
}

// RunBatchesCtx traverses the unweighted graph g from every source using
// bit-parallel 64-wide multi-source sweeps fanned out across a worker pool.
// Per-worker scratch (lane-mask arrays, frontier buffers and the distance
// slab) is allocated once and reused across batches. This is the batched
// engine behind the estimators' TraversalBatched mode. Cancellation is
// cooperative: workers stop claiming batches once ctx is done and in-flight
// sweeps bail at their next frontier level. On a non-nil
// (par.ErrCanceled-wrapping) return the handler may have seen only a subset
// of batches; callers discard their accumulation.
func RunBatchesCtx(ctx context.Context, g *graph.Graph, sources []graph.NodeID, workers int, handle BatchHandler) error {
	n := g.NumNodes()
	return runBatches(ctx, n, sources, workers, 1, func(s *batchScratch, batch []graph.NodeID, rows [][]int32) {
		for lane := range batch {
			fill(rows[lane])
		}
		MultiSourceMasksInto(g, batch, s.ms, maskRowFill(rows, len(batch)))
	}, handle)
}

// MaskHandler consumes the visit stream of a mask-granularity batch run:
// one call per (node, newly arrived lane set, distance) triple, identified
// by the worker that produced it and the batch's base index into the
// driver's source list. Handlers for different batches run concurrently;
// callers that accumulate should either use atomics for cross-batch cells
// or keep per-worker state (the worker index is stable).
type MaskHandler func(worker, base int, batch []graph.NodeID, v graph.NodeID, mask uint64, d int32)

// RunBatchesMaskCtx traverses the unweighted graph from every source with
// 64-wide multi-source sweeps like RunBatchesCtx, but streams mask-level
// visits to the handler instead of materialising per-lane distance rows —
// the right shape for pure accumulation (farness sums) where a merged-lane
// visit can be consumed as one d·popcount update instead of 64 row writes
// followed by 64 row scans. On a non-nil return the handler saw a partial
// visit stream and the caller must discard its accumulation.
func RunBatchesMaskCtx(ctx context.Context, g *graph.Graph, sources []graph.NodeID, workers int, handle MaskHandler) error {
	if len(sources) == 0 {
		return par.CtxErr(ctx)
	}
	nb := numBatches(len(sources))
	workers = par.Workers(workers)
	if workers > nb {
		workers = nb
	}
	done := ctx.Done()
	scratch := make([]*MSScratch, workers)
	for i := range scratch {
		scratch[i] = NewMSScratch(g.NumNodes(), 1)
		scratch[i].SetDone(done)
	}
	return par.ForDynamicCtx(ctx, nb, workers, 1, func(worker, bi int) {
		base := bi * MSBFSWidth
		hi := base + MSBFSWidth
		if hi > len(sources) {
			hi = len(sources)
		}
		batch := sources[base:hi]
		MultiSourceMasksInto(g, batch, scratch[worker], func(v graph.NodeID, mask uint64, d int32) {
			handle(worker, base, batch, v, mask, d)
		})
	})
}

// RunBatchesWCtx is RunBatchesCtx over an integer-weighted graph (the
// reduced graphs chain contraction produces). Kernel selection follows
// MultiSourceWRows: level-synchronous sweeps when all weights are 1, the
// lane-masked Dial when the maximum weight is bucketable, and a per-source
// Dial fallback beyond MSMaxBucketWeight — the handler sees identical
// batch/rows shapes either way.
func RunBatchesWCtx(ctx context.Context, g *graph.WGraph, sources []graph.NodeID, workers int, handle BatchHandler) error {
	n := g.NumNodes()
	unweighted := g.Unweighted()
	maxW := g.MaxWeight()
	return runBatches(ctx, n, sources, workers, maxW, func(s *batchScratch, batch []graph.NodeID, rows [][]int32) {
		MultiSourceWRows(g, unweighted, batch, s.ms, rows)
	}, handle)
}
