package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/bct"
	"repro/internal/bfs"
	"repro/internal/bicc"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/queue"
	"repro/internal/reduce"
)

// estimateCumulative is the full BRICS pipeline (the paper's Algorithm 5):
// decompose the reduced graph into biconnected components, sample inside
// each block with every cut vertex always sampled, traverse blocks
// independently, aggregate cross-block contributions over the block
// cut-vertex tree (Algorithm 6), and assemble per-node farness.
// Cancellation checkpoints sit before the decomposition ("core.decompose"),
// before the pass-1 fan-out ("core.traverse", with per-task and in-kernel
// checks inside it), and before the tree aggregation + pass 2
// ("core.aggregate"); a non-nil error discards all partial accumulation.
func estimateCumulative(ctx context.Context, red *reduce.Reduction, opts *Options) (*Result, error) {
	n := red.Orig.NumNodes()
	nR := red.G.NumNodes()
	if nR <= 2 {
		return estimateGlobal(ctx, red, opts)
	}

	if err := fault.Checkpoint(ctx, "core.decompose"); err != nil {
		return nil, err
	}
	prepStart := time.Now()
	d, biccT := bicc.DecomposeTimed(red.G, bicc.AlgoAuto, opts.Workers)
	if d.NumBlocks() <= 1 {
		// A single biconnected block degenerates to the global estimator.
		res, err := estimateGlobal(ctx, red, opts)
		if err == nil {
			res.Stats.Blocks = d.Summarize()
			res.Stats.BiCC = biccT
		}
		return res, err
	}
	tree := bct.NewTree(d, largestBlock(d))
	if err := tree.Validate(); err != nil {
		return nil, err
	}

	nb := d.NumBlocks()

	// Home block of every kept (reduced) node.
	homeOf := make([]int32, nR)
	for v := 0; v < nR; v++ {
		if ci := tree.CutIndex[v]; ci >= 0 {
			homeOf[v] = tree.HomeBlock[ci]
		} else {
			homeOf[v] = d.BlocksOf[v][0]
		}
	}

	// Assign every removal event to the block its anchors live in.
	evOf := make([]int32, n)
	for i := range evOf {
		evOf[i] = -1
	}
	for i, e := range red.Events {
		for _, r := range e.Removed() {
			evOf[r] = int32(i)
		}
	}
	eventBlock := make([]int32, len(red.Events))
	fallbacks := 0
	anchorBlock := func(orig graph.NodeID) int32 {
		// Location of an anchor: its home block when kept, otherwise the
		// block of the (later) event that removed it — already assigned
		// because events are visited in reverse order.
		if rid := red.ToNew[orig]; rid >= 0 {
			return homeOf[rid]
		}
		return eventBlock[evOf[orig]]
	}
	inBlock := func(b int32, orig graph.NodeID) bool {
		if rid := red.ToNew[orig]; rid >= 0 {
			for _, bb := range d.BlocksOf[rid] {
				if bb == b {
					return true
				}
			}
			return false
		}
		return eventBlock[evOf[orig]] == b
	}
	for i := len(red.Events) - 1; i >= 0; i-- {
		var b int32 = -1
		switch e := red.Events[i].(type) {
		case *reduce.TwinEvent:
			b = anchorBlock(e.Rep)
		case *reduce.ChainEvent:
			if e.V >= 0 && e.V != e.U {
				ur, vr := red.ToNew[e.U], red.ToNew[e.V]
				switch {
				case ur >= 0 && vr >= 0:
					b = d.CommonBlock(ur, vr)
				case ur < 0:
					b = eventBlock[evOf[e.U]]
				default:
					b = eventBlock[evOf[e.V]]
				}
				// Both anchors must be reachable in the assigned block.
				if b >= 0 && (!inBlock(b, e.U) || !inBlock(b, e.V)) {
					b = -1
				}
			} else {
				b = anchorBlock(e.U)
			}
		case *reduce.RedundantEvent:
			// All neighbours of a redundant node share a block. A
			// neighbour removed by a *later* iterative round resolves to
			// that event's block (already assigned in this reverse scan).
			var cand []int32
			for _, x := range e.Nbrs {
				var blocks []int32
				if rid := red.ToNew[x]; rid >= 0 {
					blocks = d.BlocksOf[rid]
				} else {
					blocks = []int32{eventBlock[evOf[x]]}
				}
				if cand == nil {
					cand = append(cand, blocks...)
				} else {
					cand = intersectBlocks(cand, blocks)
				}
			}
			if len(cand) > 0 {
				b = cand[0]
			}
		}
		if b < 0 {
			// Should not happen (see DESIGN.md); keep the run alive with
			// the first anchor's block and count the imprecision.
			fallbacks++
			b = anchorBlock(red.Events[i].Anchors()[0])
		}
		eventBlock[i] = b
	}

	// Per-block event lists (ascending; replayed descending = reverse
	// removal order) and populations.
	blockEvents := make([][]int32, nb)
	pop := make([]int64, nb)
	for i := range red.Events {
		b := eventBlock[i]
		blockEvents[b] = append(blockEvents[b], int32(i))
		pop[b] += int64(len(red.Events[i].Removed()))
	}
	for v := 0; v < nR; v++ {
		pop[homeOf[v]]++
	}

	// Sampling: cut vertices always, plus a per-block share of the global
	// budget drawn uniformly among non-cut members (Algorithm 5, lines
	// 7–10).
	kTotal := samplesFor(nR, opts.fraction())
	blockSamples := make([][]graph.NodeID, nb) // reduced ids
	numRand := make([]int, nb)
	numAssignedSamples := make([]int, nb)
	totalSamples := 0
	for b := 0; b < nb; b++ {
		members := d.BlockNodes[b]
		var cuts, nonCut []graph.NodeID
		for _, v := range members {
			if tree.CutIndex[v] >= 0 {
				cuts = append(cuts, v)
			} else {
				nonCut = append(nonCut, v)
			}
		}
		kb := (kTotal*len(members) + nR - 1) / nR
		kb -= len(cuts)
		if kb < 0 {
			kb = 0
		}
		if kb > len(nonCut) {
			kb = len(nonCut)
		}
		samples := append([]graph.NodeID(nil), cuts...)
		if kb > 0 {
			rng := rand.New(rand.NewSource(opts.Seed + int64(b)*7919))
			idx := sampleK(len(nonCut), kb, rng)
			for _, j := range idx {
				samples = append(samples, nonCut[j])
			}
		}
		blockSamples[b] = samples
		numRand[b] = len(samples) - len(cuts)
		numAssignedSamples[b] = numRand[b]
		for _, c := range cuts {
			if homeOf[c] == int32(b) {
				numAssignedSamples[b]++
			}
		}
		totalSamples += len(samples)
	}

	// Anytime bookkeeping. "Planned" counts traversal units — a cut vertex
	// once per block it belongs to — matching totalSamples. A partial
	// cumulative result additionally requires every cut traversal to have
	// completed (the tree aggregation has no per-source fallback), which the
	// cuts-first task ordering below makes the common case; eff* hold the
	// per-block completed counts the partial assembly substitutes for the
	// planned ones.
	var any *anyState
	var effNs, effRand, effAssigned []int64
	var cutPairsDone atomic.Int64
	totalCutPairs := 0
	for b := 0; b < nb; b++ {
		totalCutPairs += len(tree.BlockCuts[b])
	}
	if opts.Anytime || opts.Progress != nil {
		any = newAnyState(n, totalSamples, opts.Progress)
		effNs = make([]int64, nb)
		effRand = make([]int64, nb)
		effAssigned = make([]int64, nb)
	}

	// Local (per-block) weighted subgraphs.
	localG := make([]*graph.WGraph, nb)
	localUnw := make([]bool, nb)
	maxBlockNodes := 0
	if err := par.ForBlocksCtx(ctx, nb, opts.Workers, func(_, lo, hi int) {
		for b := lo; b < hi; b++ {
			localG[b] = buildBlockGraph(d, int32(b))
			localUnw[b] = localG[b].Unweighted()
		}
	}); err != nil {
		return nil, err
	}
	for b := 0; b < nb; b++ {
		if len(d.BlockNodes[b]) > maxBlockNodes {
			maxBlockNodes = len(d.BlockNodes[b])
		}
	}

	// Cache-aware relabeling, block-local edition: each block graph is
	// rebuilt under the requested ordering and blockPerm[b] maps canonical
	// local ids to relabeled ones. Sampling, event replay and the cut
	// bookkeeping all stay canonical — only traversal sources map through
	// the permutation on the way in and distance rows map back on the way
	// out, so farness is bit-identical to the unrelabeled run.
	// blockScatter composes each block's inverse permutation with the
	// member→original map (blockScatter[b][traversal-local id] = original
	// id), so a relabeled distance row scatters with one sequential read per
	// node instead of a gather through the permutation.
	var blockPerm, blockScatter [][]graph.NodeID
	if opts.Relabel != graph.RelabelNone {
		blockPerm = make([][]graph.NodeID, nb)
		blockScatter = make([][]graph.NodeID, nb)
		if err := par.ForBlocksCtx(ctx, nb, opts.Workers, func(_, lo, hi int) {
			for b := lo; b < hi; b++ {
				rg, r := graph.RelabelW(localG[b], opts.Relabel, 1)
				if r == nil {
					continue
				}
				localG[b], blockPerm[b] = rg, r.Perm
				members := d.BlockNodes[b]
				sc := make([]graph.NodeID, len(r.Inv))
				for j, li := range r.Inv {
					sc[j] = red.ToOld[members[li]]
				}
				blockScatter[b] = sc
			}
		}); err != nil {
			return nil, err
		}
	}
	// localSrc converts a reduced-graph source id to its traversal-space
	// block-local index.
	localSrc := func(b int32, src graph.NodeID) graph.NodeID {
		li := graph.NodeID(localIndex(d.BlockNodes[b], src))
		if blockPerm != nil && blockPerm[b] != nil {
			return blockPerm[b][li]
		}
		return li
	}

	// localCutPos holds, per block and cut, the cut's index into the block's
	// traversal-space distance rows (i.e. already mapped through blockPerm).
	localCutPos := make([][]int32, nb)
	for b := 0; b < nb; b++ {
		cuts := tree.BlockCuts[b]
		localCutPos[b] = make([]int32, len(cuts))
		for i, ci := range cuts {
			localCutPos[b][i] = int32(localSrc(int32(b), tree.Cuts[ci]))
		}
	}
	prep := time.Since(prepStart)

	if err := fault.Checkpoint(ctx, "core.traverse"); err != nil {
		return nil, err
	}
	done := ctx.Done()

	// Pass 1: every sampled source.
	travStart := time.Now()
	sumAll := make([]int64, n)
	sumAssigned := make([]int64, n)
	sumRand := make([]int64, n)
	exactIn := make([]int64, n)
	var sumSqA []int64
	if opts.ComputeStdErr {
		sumSqA = make([]int64, n)
	}
	// Per-block ratio-calibration accumulators (see estimateGlobal):
	// distances from assigned samples to assigned samples vs to assigned
	// non-samples.
	aS2S := make([]int64, nb)
	aS2N := make([]int64, nb)
	sampledReduced := make([]bool, nR)
	for b := 0; b < nb; b++ {
		for _, s := range blockSamples[b] {
			sampledReduced[s] = true
		}
	}
	sumDist := make([][]int64, nb)
	cutDist := make([][][]int32, nb)
	for b := 0; b < nb; b++ {
		k := len(tree.BlockCuts[b])
		sumDist[b] = make([]int64, k)
		cutDist[b] = make([][]int32, k)
		for i := range cutDist[b] {
			cutDist[b][i] = make([]int32, k)
		}
	}

	// Cut-row cache: pass 2 needs, per (block, cut), the distances from
	// the cut to every node assigned to the block — exactly what the
	// cut's pass-1 traversal computes. When the total fits the budget we
	// keep those rows and pass 2 becomes a pure accumulation loop;
	// otherwise pass 2 re-traverses (memory-bounded mode).
	const cutCacheBudget = 16 << 20 // int32 entries (64 MiB)
	assignedCount := make([]int64, nb)
	for v := 0; v < nR; v++ {
		assignedCount[homeOf[v]]++
	}
	for i := range red.Events {
		assignedCount[eventBlock[i]] += int64(len(red.Events[i].Removed()))
	}
	var cacheTotal int64
	for b := 0; b < nb; b++ {
		cacheTotal += int64(len(tree.BlockCuts[b])) * assignedCount[b]
	}
	useCutCache := cacheTotal <= cutCacheBudget
	var cutRows [][]int32 // indexed by global row id per (block, cutpos)
	cutRowBase := make([]int32, nb)
	if useCutCache {
		rows := 0
		for b := 0; b < nb; b++ {
			cutRowBase[b] = int32(rows)
			rows += len(tree.BlockCuts[b])
		}
		cutRows = make([][]int32, rows)
	}

	// A task is one traversal unit: a single source (per-source engine) or
	// a ≤64-wide group of sources sharing a block (batched engine). The
	// engine choice is per block — Auto batches a block only when enough
	// of the sample budget landed inside it.
	type task struct {
		b    int32
		srcs []graph.NodeID // reduced ids, all in block b
	}
	var tasks []task
	anyBatched := false
	for b := 0; b < nb; b++ {
		ss := blockSamples[b]
		if opts.Traversal.batched(len(ss)) && len(ss) > 1 {
			anyBatched = true
			// Proximity-clustered batching, block-local edition: when a
			// block's sample share spans several 64-wide batches, order the
			// sources by their position in a BFS ordering of the block graph
			// so each batch covers one neighbourhood. Under RelabelBFS the
			// traversal-space ids already are those positions; otherwise one
			// throwaway ordering pass per (large) block computes them.
			// blockSamples[b] itself is left untouched — every later use is a
			// set operation, and accumulateSource keys by the source id, so
			// the reorder cannot change any accumulated integer.
			if opts.Batching.clustered(len(ss)) {
				tls := make([]graph.NodeID, len(ss))
				for i, s := range ss {
					tls[i] = localSrc(int32(b), s)
				}
				var pos []graph.NodeID
				if opts.Relabel != graph.RelabelBFS || blockPerm == nil || blockPerm[b] == nil {
					pos = graph.OrderW(localG[b], graph.RelabelBFS, opts.Workers).Perm
				}
				ord := clusterOrder(tls, pos)
				css := make([]graph.NodeID, len(ss))
				for i, j := range ord {
					css[i] = ss[j]
				}
				ss = css
			}
			for base := 0; base < len(ss); base += bfs.MSBFSWidth {
				hi := base + bfs.MSBFSWidth
				if hi > len(ss) {
					hi = len(ss)
				}
				tasks = append(tasks, task{int32(b), ss[base:hi]})
			}
		} else {
			for i := range ss {
				tasks = append(tasks, task{int32(b), ss[i : i+1]})
			}
		}
	}
	// Cuts-first ordering for anytime runs: every accumulator is keyed by
	// source id, so task order never changes an output integer — but running
	// the cut traversals first means an interrupted run has usually banked
	// all of them, which is what gates the partial assembly.
	if any != nil {
		hasCut := func(t task) bool {
			for _, s := range t.srcs {
				if tree.CutIndex[s] >= 0 {
					return true
				}
			}
			return false
		}
		sort.SliceStable(tasks, func(i, j int) bool { return hasCut(tasks[i]) && !hasCut(tasks[j]) })
	}
	workers := par.Workers(opts.Workers)
	maxW := red.G.MaxWeight()
	type ws struct {
		s        *bfs.Scratch
		distOrig []int32
		ms       *bfs.MSScratch // batched-engine state, nil when unused
		rows     [][]int32      // 64-row distance slab over block-local ids
		views    [][]int32      // rows re-sliced to the current block size
		locals   []graph.NodeID
	}
	scratch := make([]ws, workers)
	for i := range scratch {
		w := ws{s: bfs.NewScratch(maxBlockNodes, maxW), distOrig: make([]int32, n)}
		if anyBatched {
			w.ms = bfs.NewMSScratch(maxBlockNodes, maxW)
			w.ms.SetDone(done)
			slab := make([]int32, bfs.MSBFSWidth*maxBlockNodes)
			w.rows = make([][]int32, bfs.MSBFSWidth)
			for j := range w.rows {
				w.rows[j] = slab[j*maxBlockNodes : (j+1)*maxBlockNodes]
			}
			w.views = make([][]int32, bfs.MSBFSWidth)
			w.locals = make([]graph.NodeID, bfs.MSBFSWidth)
		}
		scratch[i] = w
	}

	// extendBlock scatters a block-local distance row (in traversal-space
	// ids, i.e. through blockPerm when relabeled) to original ids and
	// replays the block's removal events, exactly as a per-source
	// traversal would.
	extendBlock := func(w *ws, b int32, dist []int32) {
		if blockScatter != nil && blockScatter[b] != nil {
			for j, o := range blockScatter[b] {
				w.distOrig[o] = dist[j]
			}
		} else {
			for j, m := range d.BlockNodes[b] {
				w.distOrig[red.ToOld[m]] = dist[j]
			}
		}
		evs := blockEvents[b]
		for i := len(evs) - 1; i >= 0; i-- {
			red.Events[evs[i]].Extend(w.distOrig)
		}
	}
	useHybrid := opts.Traversal.hybrid()
	// blockTraverse fills dist with the block-local distances from src:
	// hybrid BFS on unit-weight blocks under Auto, Dial otherwise.
	blockTraverse := func(w *ws, b int32, src graph.NodeID, dist []int32) {
		if useHybrid && localUnw[b] {
			_ = bfs.WHybridDistancesBFSCtx(ctx, localG[b], localSrc(b, src), dist, w.s)
		} else {
			_ = bfs.WDistancesCtx(ctx, localG[b], localSrc(b, src), dist, w.s.B)
		}
	}
	runBlockSource := func(w *ws, b int32, src graph.NodeID) {
		dist := w.s.Dist[:len(d.BlockNodes[b])]
		blockTraverse(w, b, src, dist)
		extendBlock(w, b, dist)
	}

	// accumulateSource consumes one source's block-local distance row:
	// extend to removed nodes, then feed every accumulator. Shared by both
	// engines, so their farness outputs are bit-identical. Under anytime the
	// whole consumption runs inside the read lock and ends by recording the
	// completed traversal unit.
	accumulateSource := func(w *ws, b int32, src graph.NodeID, dist []int32) {
		if any != nil {
			any.mu.RLock()
			defer func() {
				srcAssigned := homeOf[src] == b
				atomic.AddInt64(&effNs[b], 1)
				if tree.CutIndex[src] < 0 {
					atomic.AddInt64(&effRand[b], 1)
				} else {
					cutPairsDone.Add(1)
				}
				if srcAssigned {
					atomic.AddInt64(&effAssigned[b], 1)
					any.doneSrc[red.ToOld[src]] = true
				}
				any.mu.RUnlock()
				any.advance()
			}()
		}
		extendBlock(w, b, dist)
		members := d.BlockNodes[b]
		srcAssigned := homeOf[src] == b
		srcCut := tree.CutIndex[src]
		srcIsRand := srcCut < 0
		var row []int32
		if useCutCache && srcCut >= 0 {
			row = make([]int32, 0, assignedCount[b])
		}
		var inSum, toSamples int64
		accumulate := func(o graph.NodeID, isSample bool) {
			dd := int64(w.distOrig[o])
			inSum += dd
			if isSample {
				toSamples += dd
			}
			if row != nil {
				row = append(row, w.distOrig[o])
			}
			atomic.AddInt64(&sumAll[o], dd)
			if srcIsRand {
				atomic.AddInt64(&sumRand[o], dd)
			}
			if srcAssigned {
				atomic.AddInt64(&sumAssigned[o], dd)
				if sumSqA != nil {
					atomic.AddInt64(&sumSqA[o], dd*dd)
				}
			}
		}
		for _, m := range members {
			if homeOf[m] == b {
				accumulate(red.ToOld[m], sampledReduced[m])
			}
		}
		for _, ei := range blockEvents[b] {
			for _, r := range red.Events[ei].Removed() {
				accumulate(r, false)
			}
		}
		if srcAssigned {
			atomic.StoreInt64(&exactIn[red.ToOld[src]], inSum)
			atomic.AddInt64(&aS2S[b], toSamples)
			atomic.AddInt64(&aS2N[b], inSum-toSamples)
		}
		if srcCut >= 0 {
			li := tree.CutPos(b, srcCut)
			sumDist[b][li] = inSum
			for lj := range tree.BlockCuts[b] {
				cutDist[b][li][lj] = dist[localCutPos[b][lj]]
			}
			if row != nil {
				cutRows[int(cutRowBase[b])+li] = row
			}
		}
	}

	passErr := par.ForDynamicCtx(ctx, len(tasks), workers, 1, func(worker, ti int) {
		w := &scratch[worker]
		t := tasks[ti]
		members := d.BlockNodes[t.b]
		if len(t.srcs) == 1 {
			src := t.srcs[0]
			dist := w.s.Dist[:len(members)]
			blockTraverse(w, t.b, src, dist)
			if par.Interrupted(done) {
				return // partial row; an anytime run keeps only whole rows
			}
			accumulateSource(w, t.b, src, dist)
			return
		}
		// Batched: one bit-parallel sweep covers the whole group, then the
		// per-lane post-processing is identical to the per-source path.
		locals := w.locals[:len(t.srcs)]
		for i, s := range t.srcs {
			locals[i] = localSrc(t.b, s)
		}
		rows := w.views[:len(t.srcs)]
		for i := range rows {
			rows[i] = w.rows[i][:len(members)]
		}
		bfs.MultiSourceWRows(localG[t.b], localUnw[t.b], locals, w.ms, rows)
		if par.Interrupted(done) {
			return
		}
		for lane, src := range t.srcs {
			accumulateSource(w, t.b, src, rows[lane])
		}
	})
	trav := time.Since(travStart)
	// canPartial gates graceful degradation: the tree aggregation and pass 2
	// are all-or-nothing over the cut traversals, so a partial cumulative
	// result exists only when every (block, cut) traversal completed (the
	// cuts-first ordering banks those first) and pass 2 can replay cached cut
	// rows rather than re-traverse under a dead context. Otherwise the run
	// fails over to the historical nil + ErrCanceled.
	canPartial := func(err error) bool {
		return any != nil && opts.Anytime && canceledErr(err) && useCutCache &&
			totalCutPairs > 0 && int(cutPairsDone.Load()) == totalCutPairs
	}
	partial := false
	if passErr != nil {
		if !canPartial(passErr) {
			return nil, passErr
		}
		partial = true
	}

	// Aggregate across the tree. One correction first: a twin whose
	// representative is a cut vertex c behaves as a copy *at* c — for any
	// outside node w, d(w, twin) = d(w, c) + 0, not + GroupDist. The
	// extension necessarily reports d(c, twin) = GroupDist (correct for
	// c's own farness, which keeps the uncorrected inSum), so c's dCarry
	// row in its home block must subtract that excess.
	for i, e := range red.Events {
		te, ok := e.(*reduce.TwinEvent)
		if !ok {
			continue
		}
		rid := red.ToNew[te.Rep]
		if rid < 0 {
			continue
		}
		ci := tree.CutIndex[rid]
		if ci < 0 {
			continue
		}
		b := eventBlock[i] // the rep's home block
		if li := tree.CutPos(b, ci); li >= 0 {
			sumDist[b][li] -= int64(len(te.Members)) * int64(te.GroupDist)
		}
	}
	if !partial {
		if err := fault.Checkpoint(ctx, "core.aggregate"); err != nil {
			if !canPartial(err) {
				return nil, err
			}
			partial = true
		}
	}
	aggStart := time.Now()
	contrib := tree.Aggregate(&bct.Inputs{Pop: pop, SumDist: sumDist, CutDist: cutDist})
	if contrib.TotalPop != int64(n) {
		return nil, fmt.Errorf("core: population accounting mismatch: %d != %d", contrib.TotalPop, n)
	}

	// Pass 2: cut sources again, scaled by the outside weights.
	crossAcc := make([]int64, n)
	crossConst := make([]int64, nb)
	var cutTasks []task
	for b := 0; b < nb; b++ {
		var c int64
		for li, ci := range tree.BlockCuts[b] {
			c += contrib.Dout[b][li]
			cutTasks = append(cutTasks, task{int32(b), tree.Cuts[ci : ci+1]})
		}
		crossConst[b] = c
	}
	pass2 := func(p2ctx context.Context) error {
		return par.ForDynamicCtx(p2ctx, len(cutTasks), workers, 1, func(worker, ti int) {
			t := cutTasks[ti]
			b := t.b
			src := t.srcs[0]
			li := tree.CutPos(b, tree.CutIndex[src])
			wout := contrib.Wout[b][li]
			if useCutCache {
				// Replay the cached pass-1 row in its canonical order:
				// assigned members first, then per-event removed nodes.
				row := cutRows[int(cutRowBase[b])+li]
				i := 0
				for _, m := range d.BlockNodes[b] {
					if homeOf[m] == b {
						atomic.AddInt64(&crossAcc[red.ToOld[m]], wout*int64(row[i]))
						i++
					}
				}
				for _, ei := range blockEvents[b] {
					for _, r := range red.Events[ei].Removed() {
						atomic.AddInt64(&crossAcc[r], wout*int64(row[i]))
						i++
					}
				}
				return
			}
			w := &scratch[worker]
			runBlockSource(w, b, src)
			for _, m := range d.BlockNodes[b] {
				if homeOf[m] == b {
					o := red.ToOld[m]
					atomic.AddInt64(&crossAcc[o], wout*int64(w.distOrig[o]))
				}
			}
			for _, ei := range blockEvents[b] {
				for _, r := range red.Events[ei].Removed() {
					atomic.AddInt64(&crossAcc[r], wout*int64(w.distOrig[r]))
				}
			}
		})
	}
	// A partial run replays pass 2 under a fresh context (ctx is already
	// dead, and the gating above guarantees the cached-row path). A full run
	// whose context dies *during* pass 2 leaves crossAcc torn — zero it and
	// replay cleanly if the gate allows, else abandon as before.
	p2ctx := ctx
	if partial {
		p2ctx = context.Background()
	}
	if err := pass2(p2ctx); err != nil {
		if !canPartial(err) {
			return nil, err
		}
		partial = true
		for i := range crossAcc {
			crossAcc[i] = 0
		}
		if err := pass2(context.Background()); err != nil {
			return nil, err
		}
	}

	// Assembly.
	res := &Result{
		Farness: make([]float64, n),
		Exact:   make([]bool, n),
		Stats: RunStats{
			Blocks:              d.Summarize(),
			BiCC:                biccT,
			Samples:             totalSamples,
			FallbackAssignments: fallbacks,
			Preprocess:          prep,
			Traverse:            trav,
		},
	}
	// A partial run only trusts sources whose assigned traversal completed;
	// everything else falls back to the extrapolation branches below with
	// the effective (completed) counts in place of the planned ones.
	sampled := make([]bool, n)
	if partial {
		copy(sampled, any.doneSrc)
	} else {
		for b := 0; b < nb; b++ {
			for _, s := range blockSamples[b] {
				sampled[red.ToOld[s]] = true
			}
		}
	}
	nsOf := func(b int32) int {
		if partial {
			return int(effNs[b])
		}
		return len(blockSamples[b])
	}
	kaOf := func(b int32) int64 {
		if partial {
			return effAssigned[b]
		}
		return int64(numAssignedSamples[b])
	}
	nrOf := func(b int32) int64 {
		if partial {
			return effRand[b]
		}
		return int64(numRand[b])
	}
	if sumSqA != nil && !partial {
		res.StdErr = make([]float64, n)
	}
	// Blocks whose assigned population is covered by a single sample get
	// the landmark midpoint estimate for their in-block part (see
	// landmarkSums); averages cannot be calibrated from one row. (Partial
	// runs skip this and the offset calibration: both mix planned-sample
	// bookkeeping with completed-source sums, which no longer match.)
	lmVal := make([]float64, n)
	lmSet := make([]bool, n)
	if opts.Estimator == EstimatorWeighted && !partial {
		for b := 0; b < nb; b++ {
			if numAssignedSamples[b] != 1 || pop[b] <= 2 {
				continue
			}
			var ids []graph.NodeID
			var ds []int64
			add := func(o graph.NodeID) {
				if !sampled[o] {
					ids = append(ids, o)
					ds = append(ds, sumAssigned[o])
				}
			}
			for _, m := range d.BlockNodes[b] {
				if homeOf[m] == int32(b) {
					add(red.ToOld[m])
				}
			}
			for _, ei := range blockEvents[b] {
				for _, r := range red.Events[ei].Removed() {
					add(r)
				}
			}
			if len(ids) < 2 {
				continue
			}
			lm := landmarkSums(ds)
			for i, o := range ids {
				lmVal[o] = float64(ds[i]) + lm[i]
				lmSet[o] = true
			}
		}
	}
	blockOfOrig := func(o graph.NodeID) int32 {
		if rid := red.ToNew[o]; rid >= 0 {
			return homeOf[rid]
		}
		return eventBlock[evOf[o]]
	}
	for o := 0; o < n; o++ {
		b := blockOfOrig(graph.NodeID(o))
		cross := float64(crossAcc[o] + crossConst[b])
		if sampled[o] {
			res.Exact[o] = true
			res.Farness[o] = float64(exactIn[o]) + cross
			continue
		}
		var inEst float64
		ns := nsOf(b)
		m := pop[b] - kaOf(b) // assigned non-sample mass
		switch {
		case lmSet[o]:
			inEst = lmVal[o]
		case opts.Estimator == EstimatorPaper:
			if ns > 0 {
				inEst = float64(pop[b]-1) / float64(ns) * float64(sumAll[o])
			}
		case !partial && numAssignedSamples[b] > 1 && m > 0:
			// Additive offset calibration (see estimateGlobal): the
			// assigned non-sampled mass sits on average Δ farther than
			// the samples do from each other.
			ka := int64(numAssignedSamples[b])
			mss := float64(aS2S[b]) / float64(ka*(ka-1))
			msn := float64(aS2N[b]) / float64(ka*m)
			mu := float64(sumAssigned[o])/float64(ka) + (msn - mss)
			if mu < 1 {
				mu = 1
			}
			inEst = float64(sumAssigned[o]) + mu*float64(m-1)
		default:
			// Fallback (no usable calibration): average-based
			// extrapolation over the uniform samples.
			unknown := m - 1
			if unknown < 0 {
				unknown = 0
			}
			var avg float64
			if nr := nrOf(b); nr > 0 {
				avg = float64(sumRand[o]) / float64(nr)
			} else if ns > 0 {
				avg = float64(sumAll[o]) / float64(ns)
			}
			inEst = float64(sumAssigned[o]) + avg*float64(unknown)
		}
		res.Farness[o] = inEst + cross
		if res.StdErr != nil {
			// In-block standard error: the cross-block part is exact, so
			// only the in-block extrapolation contributes variance.
			if ka := int64(numAssignedSamples[b]); ka > 1 && m > 1 {
				mean := float64(sumAssigned[o]) / float64(ka)
				variance := (float64(sumSqA[o])/float64(ka) - mean*mean) * float64(ka) / float64(ka-1)
				if variance < 0 {
					variance = 0
				}
				res.StdErr[o] = float64(m-1) * math.Sqrt(variance/float64(ka))
			}
		}
	}
	if partial {
		// Proven bounds for the partial result. The cumulative accumulators
		// hold block-local sums, not full-graph rows, so no completed-source
		// sharpening applies; instead run up to maxLandmarks fresh BFS
		// traversals from cut vertices (central by construction) on the
		// original graph and bracket every farness with pure landmark
		// triangle bounds, then clamp the estimates into them.
		lmSrcs := tree.Cuts
		if len(lmSrcs) > maxLandmarks {
			lmSrcs = lmSrcs[:maxLandmarks]
		}
		lms := make([][]int32, 0, len(lmSrcs))
		q := queue.NewFIFO(n)
		for _, c := range lmSrcs {
			row := make([]int32, n)
			bfs.Distances(red.Orig, red.ToOld[c], row, q)
			lms = append(lms, row)
		}
		low, high := partialBounds(n, make([]int64, n), make([]int64, n), make([]bool, n), lms)
		if low == nil {
			return nil, passErr
		}
		for o := 0; o < n; o++ {
			if res.Exact[o] {
				low[o], high[o] = res.Farness[o], res.Farness[o]
				continue
			}
			if res.Farness[o] < low[o] {
				res.Farness[o] = low[o]
			}
			if res.Farness[o] > high[o] {
				res.Farness[o] = high[o]
			}
		}
		res.Partial = true
		res.Completed = int(any.completed.Load())
		res.Planned = totalSamples
		res.Low, res.High = low, high
		res.Stats.Samples = res.Completed
	}
	res.Stats.Aggregate = time.Since(aggStart)
	return res, nil
}

// largestBlock returns the id of the block with the most nodes; rooting the
// BCT there keeps the tree shallow on skewed decompositions.
func largestBlock(d *bicc.Decomposition) int32 {
	best, bestN := int32(0), -1
	for b, nodes := range d.BlockNodes {
		if len(nodes) > bestN {
			best, bestN = int32(b), len(nodes)
		}
	}
	return best
}

// buildBlockGraph materialises one block as a standalone weighted graph in
// local coordinates (index into the block's sorted node list).
func buildBlockGraph(d *bicc.Decomposition, b int32) *graph.WGraph {
	members := d.BlockNodes[b]
	wb := graph.NewWBuilder(len(members))
	for _, e := range d.BlockEdges[b] {
		_ = wb.AddEdge(graph.NodeID(localIndex(members, e.U)), graph.NodeID(localIndex(members, e.V)), e.W)
	}
	return wb.Build()
}

// localIndex finds v in the sorted member list.
func localIndex(members []graph.NodeID, v graph.NodeID) int {
	return sort.Search(len(members), func(i int) bool { return members[i] >= v })
}

// intersectBlocks filters a (small) candidate block list by membership in
// another.
func intersectBlocks(cand, other []int32) []int32 {
	out := cand[:0]
	for _, c := range cand {
		for _, o := range other {
			if c == o {
				out = append(out, c)
				break
			}
		}
	}
	return out
}
