package core

import (
	"context"
	"math/bits"
	"math/rand"
	"sync/atomic"
	"time"

	"repro/internal/bfs"
	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/queue"
)

// sampleK draws k distinct values from [0, n) uniformly at random using a
// partial Fisher–Yates shuffle. k is clamped to [1, n].
func sampleK(n, k int, rng *rand.Rand) []graph.NodeID {
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	ids := make([]graph.NodeID, n)
	for i := range ids {
		ids[i] = graph.NodeID(i)
	}
	for i := 0; i < k; i++ {
		j := i + rng.Intn(n-i)
		ids[i], ids[j] = ids[j], ids[i]
	}
	return ids[:k]
}

// samplesFor converts a fraction into a source count.
func samplesFor(n int, fraction float64) int {
	k := int(fraction*float64(n) + 0.5)
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// RandomSampling is the paper's Algorithm 1: choose k = fraction·n nodes
// uniformly at random, traverse from each, report exact farness for the
// sampled nodes and the (n−1)/k-scaled distance sum for the rest. The
// traversal engine is chosen automatically (see TraversalAuto); use
// RandomSamplingMode to force one.
func RandomSampling(g *graph.Graph, fraction float64, workers int, seed int64) *Result {
	return RandomSamplingMode(g, fraction, workers, seed, TraversalAuto)
}

// RandomSamplingMode is RandomSampling with an explicit traversal engine.
// Farness output is identical across modes for the same seed; only the
// wall-clock differs.
func RandomSamplingMode(g *graph.Graph, fraction float64, workers int, seed int64, mode TraversalMode) *Result {
	res, _ := RandomSamplingModeContext(context.Background(), g, fraction, workers, seed, mode, BatchingAuto)
	return res
}

// RandomSamplingModeContext is RandomSamplingMode with cooperative
// cancellation — traversals stop at the next source (or BFS level) once
// ctx is done and the run returns a nil Result with an ErrCanceled-wrapping
// error — plus an explicit batching mode: under the batched engine the
// sampled source *order* may be rearranged by proximity before batching
// (see BatchingMode), which changes only the wall-clock, never the sample
// set or the farness output.
func RandomSamplingModeContext(ctx context.Context, g *graph.Graph, fraction float64, workers int, seed int64, mode TraversalMode, batching BatchingMode) (*Result, error) {
	return randomSampling(ctx, g, fraction, workers, seed, mode, batching, false, nil)
}

// RandomSamplingAnytimeContext is RandomSamplingModeContext as an anytime
// computation: on ctx cancellation/deadline it returns a Partial result built
// from the completed sources (exact farness for them, clamped extrapolations
// plus proven [Low, High] bounds for the rest) instead of nil + ErrCanceled,
// and publishes periodic snapshots into prog (which may be nil). A run whose
// context never fires produces farness bit-identical to
// RandomSamplingModeContext.
func RandomSamplingAnytimeContext(ctx context.Context, g *graph.Graph, fraction float64, workers int, seed int64, mode TraversalMode, batching BatchingMode, prog *Progress) (*Result, error) {
	return randomSampling(ctx, g, fraction, workers, seed, mode, batching, true, prog)
}

func randomSampling(ctx context.Context, g *graph.Graph, fraction float64, workers int, seed int64, mode TraversalMode, batching BatchingMode, anytime bool, prog *Progress) (*Result, error) {
	n := g.NumNodes()
	res := &Result{
		Farness: make([]float64, n),
		Exact:   make([]bool, n),
	}
	if n <= 1 {
		for i := range res.Exact {
			res.Exact[i] = true
		}
		return res, nil
	}
	if fraction <= 0 {
		fraction = 0.3
	}
	if fraction > 1 {
		fraction = 1
	}
	k := samplesFor(n, fraction)
	rng := rand.New(rand.NewSource(seed))
	samples := sampleK(n, k, rng)
	res.Stats.Samples = k

	start := time.Now()
	workers = par.Workers(workers)
	acc := make([]int64, n)
	exactFar := make([]int64, n)
	done := ctx.Done()
	var any *anyState
	if anytime || prog != nil {
		any = newAnyState(n, k, prog)
	}
	// accumulateAny is the anytime row consumer shared by every engine path:
	// whole-row accumulation under the read lock keeps snapshots consistent.
	accumulateAny := func(src graph.NodeID, dist []int32) {
		any.mu.RLock()
		var own int64
		for w, d := range dist {
			own += int64(d)
			atomic.AddInt64(&acc[w], int64(d))
		}
		atomic.StoreInt64(&exactFar[src], own)
		any.markDone(src, dist)
		any.mu.RUnlock()
		any.advance()
	}
	if any != nil && anytime {
		any.assemble = func() *Result {
			any.mu.Lock()
			accC := append([]int64(nil), acc...)
			exC := append([]int64(nil), exactFar...)
			doneC := append([]bool(nil), any.doneSrc...)
			any.mu.Unlock()
			return assemblePartial(n, k, accC, exC, doneC, any.landmarkRows())
		}
	}
	partialOr := func(err error) (*Result, error) {
		if any != nil && anytime && canceledErr(err) {
			if pr := any.final(); pr != nil {
				pr.Stats.Traverse = time.Since(start)
				return pr, nil
			}
		}
		return nil, err
	}
	// Under the batched engine, proximity clustering may reorder the sampled
	// sources (never the sample set) so each 64-wide batch covers one
	// neighbourhood.
	sources := samples
	if mode.batched(k) && batching.clustered(k) {
		pos := graph.Order(g, graph.RelabelBFS, workers).Perm
		ord := clusterOrder(samples, pos)
		sources = make([]graph.NodeID, k)
		for i, j := range ord {
			sources[i] = samples[j]
		}
	}
	if mode.batched(k) && any != nil {
		// Anytime batched path: the mask-granularity engine streams visits
		// mid-sweep, which would leave torn rows in the accumulators on a
		// cancellation. Consume whole rows instead — the same integers reach
		// acc, so a full run stays bit-identical to the mask path; only the
		// wall-clock differs.
		err := bfs.RunBatchesCtx(ctx, g, sources, workers, func(_, base int, batch []graph.NodeID, rows [][]int32) {
			for lane, src := range batch {
				accumulateAny(src, rows[lane])
			}
		})
		if err != nil {
			return partialOr(err)
		}
	} else if mode.batched(k) {
		// The batched engine consumes the visit stream at mask granularity:
		// one d·popcount add per (node, arriving lane set) instead of one add
		// per lane. When clustering merges the lane frontiers the common case
		// is a single full-mask visit per node — 64 accumulator updates for
		// the price of one atomic.
		// farBySlot[base+lane] is only ever written by the goroutine running
		// that batch's sweep (slots of one batch never span batches), so the
		// per-source sums need no atomics; only the shared acc cells do.
		farBySlot := make([]int64, k)
		err := bfs.RunBatchesMaskCtx(ctx, g, sources, workers, func(_, base int, batch []graph.NodeID, v graph.NodeID, mask uint64, d int32) {
			atomic.AddInt64(&acc[v], int64(d)*int64(bits.OnesCount64(mask)))
			bfs.AccumulateLanes(farBySlot[base:base+len(batch)], mask, int64(d))
		})
		if err != nil {
			return nil, err
		}
		for i, src := range sources {
			exactFar[src] = farBySlot[i]
		}
	} else {
		accumulateRow := func(src graph.NodeID, dist []int32) {
			if any != nil {
				accumulateAny(src, dist)
				return
			}
			var own int64
			for w, d := range dist {
				own += int64(d)
				atomic.AddInt64(&acc[w], int64(d))
			}
			atomic.StoreInt64(&exactFar[src], own)
		}
		hybrid := mode.hybrid()
		type ws struct {
			dist []int32
			q    *queue.FIFO
			s    *bfs.Scratch
		}
		scratch := make([]ws, workers)
		for i := range scratch {
			w := ws{dist: make([]int32, n)}
			if hybrid {
				w.s = &bfs.Scratch{}
			} else {
				w.q = queue.NewFIFO(n)
			}
			scratch[i] = w
		}
		err := par.ForDynamicCtx(ctx, k, workers, 1, func(worker, i int) {
			s := &scratch[worker]
			src := samples[i]
			if hybrid {
				_ = bfs.HybridDistancesCtx(ctx, g, src, s.dist, s.s)
			} else {
				_ = bfs.DistancesCtx(ctx, g, src, s.dist, s.q)
			}
			if par.Interrupted(done) {
				return // partial row; an anytime run keeps only whole rows
			}
			accumulateRow(src, s.dist)
		})
		if err != nil {
			return partialOr(err)
		}
	}
	res.Stats.Traverse = time.Since(start)

	scale := float64(n-1) / float64(k)
	for _, s := range samples {
		res.Exact[s] = true
	}
	for v := 0; v < n; v++ {
		if res.Exact[v] {
			res.Farness[v] = float64(exactFar[v])
		} else {
			res.Farness[v] = float64(acc[v]) * scale
		}
	}
	return res, nil
}
