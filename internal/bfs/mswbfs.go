package bfs

import (
	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/queue"
)

// MSMaxBucketWeight is the largest maximum edge weight for which the
// lane-masked Dial kernel is used. Beyond it lanes rarely coincide on a
// bucket level, so the shared edge scans that make multi-source traversal
// pay off disappear while the mask bookkeeping remains; the drivers then
// fall back to one plain Dial per source. Chain contraction produces
// weights equal to contracted chain lengths, which sit far below this on
// every graph family the paper evaluates.
const MSMaxBucketWeight = 512

// multiSourceWMasksInto runs a lane-masked Dial (bucket-queue)
// shortest-path sweep from up to 64 sources simultaneously over an
// integer-weighted graph. visit receives the lanes newly settled at v for
// weighted distance d as a bitmask. Unlike the unweighted kernel, the same
// (v, d) pair may be reported across several calls — bucket entries arriving
// from different predecessors settle disjoint lane subsets — but each
// (source, node) pair is covered exactly once over the whole sweep. The
// scratch must have been created with at least the graph's maximum edge
// weight.
//
// The kernel generalises Dial's monotone bucket ring to lane masks: each
// bucket holds (node, mask) entries meaning "the lanes in mask may reach
// node at this distance"; draining buckets in increasing distance settles
// every lane at its true distance, with stale entries filtered by the
// per-node seen mask. Entries landing on the same node at the same distance
// are coalesced before edge relaxation, so lanes whose frontiers coincide
// share one edge scan — the same win the unweighted kernel gets per level.
func multiSourceWMasksInto(g *graph.WGraph, sources []graph.NodeID, s *MSScratch, visit func(v graph.NodeID, mask uint64, d int32)) {
	if len(sources) == 0 {
		return
	}
	if len(sources) > MSBFSWidth {
		panic("bfs: a multi-source sweep carries at most 64 sources")
	}
	n := g.NumNodes()
	s.reset(n)
	if len(s.pend) < n {
		s.pend = make([]uint64, n)
	}
	if maxW := int(g.MaxWeight()); len(s.buckets) <= maxW {
		s.buckets = make([][]msEntry, maxW+1)
	}
	seen, pend := s.seen, s.pend
	ring := len(s.buckets)
	for i := range s.buckets {
		s.buckets[i] = s.buckets[i][:0]
	}
	levelNodes := s.levelNodes[:0]

	pending := 0
	for lane, src := range sources {
		s.buckets[0] = append(s.buckets[0], msEntry{src, uint64(1) << uint(lane)})
		pending++
	}

	for d := int32(0); pending > 0; d++ {
		slot := int(d) % ring
		entries := s.buckets[slot]
		if len(entries) == 0 {
			continue
		}
		if par.Interrupted(s.done) {
			break
		}
		pending -= len(entries)
		// Phase 1: settle new lanes, coalescing same-distance arrivals per
		// node so phase 2 scans each node's edges once for all its lanes.
		levelNodes = levelNodes[:0]
		for _, e := range entries {
			nw := e.mask &^ seen[e.v]
			if nw == 0 {
				continue
			}
			// Branch-avoiding queue insert (see msbfs.go): append
			// speculatively, retract by the already-pending bit.
			levelNodes = append(levelNodes, e.v)
			levelNodes = levelNodes[:len(levelNodes)-int(nzb(pend[e.v]))]
			pend[e.v] |= nw
			seen[e.v] |= nw
			visit(e.v, nw, d)
		}
		s.buckets[slot] = entries[:0]
		// Phase 2: relax. Every push targets a strictly larger distance
		// (weights are ≥ 1), so the slot being drained never grows.
		for _, v := range levelNodes {
			m := pend[v]
			pend[v] = 0
			nbrs := g.Neighbors(v)
			ws := g.Weights(v)
			for i, w := range nbrs {
				fm := m &^ seen[w]
				if fm == 0 {
					continue
				}
				nslot := int(d+ws[i]) % ring
				s.buckets[nslot] = append(s.buckets[nslot], msEntry{w, fm})
				pending++
			}
		}
	}
	s.levelNodes = levelNodes[:0]
}

// MultiSourceWRows fills rows[lane][v] with the shortest-path distance from
// batch[lane] to v (Unreached where unreachable), choosing the best kernel
// for the graph: the level-synchronous bit-parallel sweep when every weight
// is 1, the lane-masked Dial when the maximum weight is bucketable, and one
// plain Dial per source beyond that (see MSMaxBucketWeight). unweighted is
// the caller's cached g.Unweighted(). rows must hold len(batch) slices of
// length g.NumNodes(); the scratch must cover the graph's size and weight.
func MultiSourceWRows(g *graph.WGraph, unweighted bool, batch []graph.NodeID, s *MSScratch, rows [][]int32) {
	for lane := range batch {
		fill(rows[lane])
	}
	rowFill := maskRowFill(rows, len(batch))
	switch {
	case unweighted:
		// All weights are 1: the level-synchronous kernel over the raw CSR
		// arrays, with no bucket ring.
		offsets, adj, _ := g.CSR()
		msLevelSync(offsets, adj, batch, s, rowFill)
	case g.MaxWeight() <= MSMaxBucketWeight:
		multiSourceWMasksInto(g, batch, s, rowFill)
	default:
		if s.fb == nil || s.fbMaxW < g.MaxWeight() {
			s.fb = queue.NewBucket(g.MaxWeight())
			s.fbMaxW = g.MaxWeight()
		}
		for lane, src := range batch {
			if par.Interrupted(s.done) {
				break
			}
			wDistancesDone(g, src, rows[lane], s.fb, s.done)
		}
	}
}
