package core

import (
	"context"
	"math"
	"math/rand"
	"sync/atomic"
	"time"

	"repro/internal/bfs"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/queue"
	"repro/internal/reduce"
)

// estimateGlobal runs the reduction-based estimator without the
// biconnected decomposition (the paper's C+R and I+C+R configurations):
// sample kept nodes of the reduced graph, traverse it per source, extend
// distances over the removal log, and accumulate. Cancellation lands before
// the traversal fan-out ("core.traverse"), at every source boundary inside
// it, within the kernels themselves, and before aggregation
// ("core.aggregate"); on a non-nil error the partially filled accumulators
// are discarded with the rest of the run.
func estimateGlobal(ctx context.Context, red *reduce.Reduction, opts *Options) (*Result, error) {
	n := red.Orig.NumNodes()
	nR := red.G.NumNodes()
	res := &Result{
		Farness: make([]float64, n),
		Exact:   make([]bool, n),
	}
	k := samplesFor(nR, opts.fraction())
	rng := rand.New(rand.NewSource(opts.Seed))
	samplesReduced := sampleK(nR, k, rng)

	// Degenerate-reduction augmentation: when the graph reduces so hard
	// that fewer than minSamples sources remain (e.g. a star plus twins
	// collapses to one node), the extrapolation has nothing to calibrate
	// against. Add a few uniformly random *original* nodes as extra
	// sources; their traversals run on the original graph and feed the
	// same accumulators.
	const minSamples = 4
	var extraOrig []graph.NodeID
	if k < minSamples && n > k {
		keptSet := make(map[graph.NodeID]bool, k)
		for _, sR := range samplesReduced {
			keptSet[red.ToOld[sR]] = true
		}
		for _, cand := range sampleK(n, minSamples, rng) {
			if len(extraOrig)+k >= minSamples {
				break
			}
			if !keptSet[cand] {
				extraOrig = append(extraOrig, cand)
			}
		}
	}
	res.Stats.Samples = k + len(extraOrig)

	// Anytime bookkeeping: every completed row marks its source done under a
	// read lock, so snapshots (and the end-of-run partial assembly) only ever
	// observe whole-source accumulator states.
	var any *anyState
	if opts.Anytime || opts.Progress != nil {
		any = newAnyState(n, k+len(extraOrig), opts.Progress)
	}

	if err := fault.Checkpoint(ctx, "core.traverse"); err != nil {
		return nil, err
	}
	start := time.Now()
	done := ctx.Done()
	workers := par.Workers(opts.Workers)
	unweighted := red.G.Unweighted()
	maxW := red.G.MaxWeight()
	// Traversals run on the (possibly cache-relabeled) copy of the reduced
	// graph; sampling above and the removal log stay canonical, so results
	// are independent of the ordering. Sources map through perm on the way
	// in, distance rows map back through ScatterPerm on the way out.
	tg, perm := red.TraversalGraph()
	permOf := func(sR graph.NodeID) graph.NodeID {
		if perm != nil {
			return perm[sR]
		}
		return sR
	}

	acc := make([]int64, n)      // Σ over sources of d(s, ·), original ids
	exactFar := make([]int64, n) // exact farness of sampled nodes
	var sumSq []int64
	if opts.ComputeStdErr {
		sumSq = make([]int64, n)
	}
	isSample := make([]bool, n)
	for _, sR := range samplesReduced {
		isSample[red.ToOld[sR]] = true
	}
	for _, s := range extraOrig {
		isSample[s] = true
	}
	kEff := k + len(extraOrig)
	// Calibration accumulators for the ratio estimator: distances from
	// samples to other samples vs to non-samples.
	var s2s, s2n int64

	type ws struct {
		s        *bfs.Scratch
		distOrig []int32
		origQ    *queue.FIFO
	}
	scratch := make([]ws, workers)
	for i := range scratch {
		scratch[i] = ws{s: bfs.NewScratch(nR, maxW), distOrig: make([]int32, n), origQ: queue.NewFIFO(n)}
	}

	accumulateRow := func(w *ws, srcOrig graph.NodeID) {
		if any != nil {
			any.mu.RLock()
		}
		var own, toSamples int64
		for v, d := range w.distOrig {
			own += int64(d)
			atomic.AddInt64(&acc[v], int64(d))
			if sumSq != nil {
				atomic.AddInt64(&sumSq[v], int64(d)*int64(d))
			}
			if isSample[v] {
				toSamples += int64(d)
			}
		}
		atomic.StoreInt64(&exactFar[srcOrig], own)
		atomic.AddInt64(&s2s, toSamples)
		atomic.AddInt64(&s2n, own-toSamples)
		if any != nil {
			any.markDone(srcOrig, w.distOrig)
			any.mu.RUnlock()
			any.advance()
		}
	}
	if any != nil && opts.Anytime {
		any.assemble = func() *Result {
			any.mu.Lock()
			accC := append([]int64(nil), acc...)
			exC := append([]int64(nil), exactFar...)
			doneC := append([]bool(nil), any.doneSrc...)
			any.mu.Unlock()
			return assemblePartial(n, int(any.planned), accC, exC, doneC, any.landmarkRows())
		}
	}
	// partialOr converts a canceled fan-out into the partial result when the
	// run is anytime and at least one source completed.
	partialOr := func(err error) (*Result, error) {
		if any != nil && opts.Anytime && canceledErr(err) {
			if pr := any.final(); pr != nil {
				pr.Stats.Traverse = time.Since(start)
				return pr, nil
			}
		}
		return nil, err
	}

	if opts.Traversal.batched(k) {
		// Batched engine: 64-wide multi-source sweeps over the traversal
		// graph; each lane's row is scattered and extended exactly like a
		// per-source traversal, so the accumulated integers are identical.
		// Sources are handed over in traversal-graph ids; the handler's base
		// index recovers each lane's canonical sample.
		sourcesT := samplesReduced
		if perm != nil {
			sourcesT = make([]graph.NodeID, k)
			for i, sR := range samplesReduced {
				sourcesT[i] = perm[sR]
			}
		}
		// Proximity-clustered batching: permute the (sourcesT, laneSamples)
		// pairs together so each 64-wide batch covers one neighbourhood of a
		// BFS ordering of the traversal graph. Under RelabelBFS the traversal
		// ids already are that ordering; otherwise one throwaway ordering
		// pass computes the positions. Accumulation stays keyed by
		// laneSamples, so the reorder cannot change any output integer.
		laneSamples := samplesReduced
		if opts.Batching.clustered(k) {
			var pos []graph.NodeID
			if perm == nil || opts.Relabel != graph.RelabelBFS {
				pos = graph.OrderW(tg, graph.RelabelBFS, workers).Perm
			}
			ord := clusterOrder(sourcesT, pos)
			st := make([]graph.NodeID, k)
			ls := make([]graph.NodeID, k)
			for i, j := range ord {
				st[i] = sourcesT[j]
				ls[i] = samplesReduced[j]
			}
			sourcesT, laneSamples = st, ls
		}
		err := bfs.RunBatchesWCtx(ctx, tg, sourcesT, workers, func(worker, base int, batch []graph.NodeID, rows [][]int32) {
			w := &scratch[worker]
			for lane := range batch {
				srcR := laneSamples[base+lane]
				red.ScatterPerm(rows[lane], perm, w.distOrig)
				red.Extend(w.distOrig)
				accumulateRow(w, red.ToOld[srcR])
			}
		})
		if err != nil {
			return partialOr(err)
		}
		err = par.ForDynamicCtx(ctx, len(extraOrig), workers, 1, func(worker, i int) {
			w := &scratch[worker]
			src := extraOrig[i]
			bfs.Distances(red.Orig, src, w.distOrig, w.origQ)
			accumulateRow(w, src)
		})
		if err != nil {
			return partialOr(err)
		}
	} else {
		err := par.ForDynamicCtx(ctx, kEff, workers, 1, func(worker, i int) {
			w := &scratch[worker]
			if i < k {
				srcR := samplesReduced[i]
				if unweighted && opts.Traversal.hybrid() {
					_ = bfs.WHybridDistancesBFSCtx(ctx, tg, permOf(srcR), w.s.Dist, w.s)
				} else {
					_ = bfs.WDistancesAutoCtx(ctx, tg, unweighted, permOf(srcR), w.s)
				}
				if par.Interrupted(done) {
					return // partial row; the whole run is about to error out
				}
				red.ScatterPerm(w.s.Dist, perm, w.distOrig)
				red.Extend(w.distOrig)
				accumulateRow(w, red.ToOld[srcR])
				return
			}
			// Augmentation source: plain BFS on the original graph.
			src := extraOrig[i-k]
			bfs.Distances(red.Orig, src, w.distOrig, w.origQ)
			accumulateRow(w, src)
		})
		if err != nil {
			return partialOr(err)
		}
	}
	res.Stats.Traverse = time.Since(start)

	if err := fault.Checkpoint(ctx, "core.aggregate"); err != nil {
		return partialOr(err)
	}
	aggStart := time.Now()
	for _, sR := range samplesReduced {
		res.Exact[red.ToOld[sR]] = true
	}
	for _, s := range extraOrig {
		res.Exact[s] = true
	}
	k = kEff
	// EstimatorPaper: scale the sampled distance sum by (n−1)/k — the
	// literal reading of the paper's Algorithm 1 adaptation.
	//
	// EstimatorWeighted: additive offset calibration. Samples are kept
	// (well-connected) nodes, so an unsampled node's mean distance to the
	// non-sampled population (mostly reduced-away peripheral nodes)
	// exceeds its mean distance to the samples by roughly the same offset
	// Δ the sample rows exhibit: Δ = mean(sample→non-sample) −
	// mean(sample→sample). Estimate Σ_{w non-sample} d(x,w) as
	// (mean_s d(s,x) + Δ)·(m−1).
	paperScale := float64(n-1) / float64(k)
	m := int64(n - k) // non-sampled population
	useOffset := opts.Estimator == EstimatorWeighted && m > 0 && k > 1
	delta := 0.0
	if useOffset {
		mss := float64(s2s) / float64(k*(k-1))
		msn := float64(s2n) / float64(int64(k)*m)
		delta = msn - mss
	}
	// Single-sample degenerate case (tiny graphs reduced to almost
	// nothing): the offset has nothing to calibrate against, so fall back
	// to the landmark midpoint heuristic over the non-sampled population.
	var lm []float64
	var lmIdx []int
	if opts.Estimator == EstimatorWeighted && !useOffset && k == 1 && m > 1 {
		lmIdx = make([]int, 0, m)
		ds := make([]int64, 0, m)
		for v := 0; v < n; v++ {
			if !res.Exact[v] {
				lmIdx = append(lmIdx, v)
				ds = append(ds, acc[v])
			}
		}
		lm = landmarkSums(ds)
	}
	for v := 0; v < n; v++ {
		switch {
		case res.Exact[v]:
			res.Farness[v] = float64(exactFar[v])
		case useOffset:
			mu := float64(acc[v])/float64(k) + delta
			if mu < 1 {
				mu = 1 // distinct nodes are at distance ≥ 1
			}
			res.Farness[v] = float64(acc[v]) + mu*float64(m-1)
		default:
			res.Farness[v] = float64(acc[v]) * paperScale
		}
	}
	for i, v := range lmIdx {
		res.Farness[v] = float64(acc[v]) + lm[i]
	}
	if sumSq != nil {
		// StdErr of the extrapolated part: the estimate scales the mean
		// sampled distance μ̂ by the unsampled mass, so its standard
		// error is (m−1)·s/√k with s the sample standard deviation of
		// the node's distances.
		res.StdErr = make([]float64, n)
		if k > 1 && m > 1 {
			for v := 0; v < n; v++ {
				if res.Exact[v] {
					continue
				}
				mean := float64(acc[v]) / float64(k)
				variance := (float64(sumSq[v])/float64(k) - mean*mean) * float64(k) / float64(k-1)
				if variance < 0 {
					variance = 0
				}
				res.StdErr[v] = float64(m-1) * math.Sqrt(variance/float64(k))
			}
		}
	}
	res.Stats.Aggregate = time.Since(aggStart)
	return res, nil
}
