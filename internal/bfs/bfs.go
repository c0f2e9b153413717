// Package bfs provides the traversal kernels of the system: plain and
// direction-optimising breadth-first search on unweighted graphs, and Dial's
// bucket-queue shortest paths on the integer-weighted graphs produced by
// chain contraction. All kernels write into caller-provided distance buffers
// so that the per-source parallel drivers can reuse scratch per worker.
package bfs

import (
	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/queue"
)

// Unreached marks nodes not reached by a traversal.
const Unreached int32 = -1

// fill sets every element of dist to Unreached.
func fill(dist []int32) {
	for i := range dist {
		dist[i] = Unreached
	}
}

// interruptEvery is how many queue pops a per-source kernel processes
// between polls of its done channel. Coarse enough that the poll vanishes in
// the edge-scan cost, fine enough that cancellation lands within a fraction
// of a millisecond even on large graphs.
const interruptEvery = 2048

// Distances runs a BFS from src over g, filling dist with hop counts
// (Unreached for unreachable nodes). dist must have length g.NumNodes().
// The scratch queue may be nil, in which case one is allocated. It is the
// reference traversal every other kernel is tested against.
func Distances(g *graph.Graph, src graph.NodeID, dist []int32, q *queue.FIFO) {
	offsets, adj := g.CSR()
	distancesDone(offsets, adj, src, dist, q, nil)
}

// distancesDone is the BFS kernel over raw CSR arrays, so one implementation
// serves both the simple and the all-weights-one contracted graphs, with an
// optional interruption channel: a nil done never interrupts; a fired done
// makes the kernel return early, leaving dist partial (callers discard it).
func distancesDone(offsets []int64, adj []graph.NodeID, src graph.NodeID, dist []int32, q *queue.FIFO, done <-chan struct{}) {
	fill(dist)
	if q == nil {
		q = queue.NewFIFO(len(offsets) - 1)
	} else {
		q.Reset()
	}
	dist[src] = 0
	q.Push(src)
	budget := interruptEvery
	for !q.Empty() {
		if budget--; budget == 0 {
			if par.Interrupted(done) {
				return
			}
			budget = interruptEvery
		}
		u := q.Pop()
		du := dist[u]
		for _, v := range adj[offsets[u]:offsets[u+1]] {
			if dist[v] == Unreached {
				dist[v] = du + 1
				q.Push(v)
			}
		}
	}
}

// Scratch bundles the per-worker reusable state for weighted traversals.
type Scratch struct {
	Dist []int32
	Q    *queue.FIFO
	B    *queue.Bucket
	// Direction-optimising frontier state (bitset words + two frontier
	// buffers), allocated lazily on first hybrid traversal and pooled across
	// sources like the rest of the scratch.
	front           []uint64
	frontier, spare []graph.NodeID
}

// hybridState returns the pooled direction-optimising buffers sized for an
// n-node graph, growing them on first use or when a larger graph shows up.
// The bitset words are returned zeroed (the kernel clears the bits it sets).
func (s *Scratch) hybridState(n int) (front []uint64, frontier, spare []graph.NodeID) {
	words := (n + 63) / 64
	if len(s.front) < words {
		s.front = make([]uint64, words)
	}
	if cap(s.frontier) < n {
		s.frontier = make([]graph.NodeID, 0, n)
		s.spare = make([]graph.NodeID, 0, n)
	}
	return s.front, s.frontier[:0], s.spare[:0]
}

// NewScratch allocates traversal scratch for an n-node graph whose edge
// weights do not exceed maxWeight.
func NewScratch(n int, maxWeight int32) *Scratch {
	return &Scratch{
		Dist: make([]int32, n),
		Q:    queue.NewFIFO(n),
		B:    queue.NewBucket(maxWeight),
	}
}

// wDistancesDone is Dial's algorithm from src over the weighted graph g,
// filling dist with shortest-path lengths, with an optional interruption
// channel (see distancesDone). b must have been created with at least the
// graph's maximum edge weight, or be nil.
func wDistancesDone(g *graph.WGraph, src graph.NodeID, dist []int32, b *queue.Bucket, done <-chan struct{}) {
	fill(dist)
	if b == nil {
		b = queue.NewBucket(g.MaxWeight())
	} else {
		b.Reset()
	}
	dist[src] = 0
	b.Push(src, 0)
	budget := interruptEvery
	for !b.Empty() {
		if budget--; budget == 0 {
			if par.Interrupted(done) {
				return
			}
			budget = interruptEvery
		}
		u, du := b.Pop()
		if dist[u] != du {
			continue // stale entry superseded by a shorter path
		}
		nbrs := g.Neighbors(u)
		ws := g.Weights(u)
		for i, v := range nbrs {
			nd := du + ws[i]
			if dist[v] == Unreached || nd < dist[v] {
				dist[v] = nd
				b.Push(v, nd)
			}
		}
	}
}

// Eccentricity returns the largest finite distance in dist, i.e. the
// eccentricity of the traversal's source within its component.
func Eccentricity(dist []int32) int32 {
	var ecc int32
	for _, d := range dist {
		if d > ecc {
			ecc = d
		}
	}
	return ecc
}

// Sum returns the sum of all finite distances in dist — the farness of the
// source restricted to its component — and the count of reached nodes
// (including the source itself).
func Sum(dist []int32) (sum int64, reached int) {
	for _, d := range dist {
		if d != Unreached {
			sum += int64(d)
			reached++
		}
	}
	return sum, reached
}
