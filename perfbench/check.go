package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"

	"repro/internal/graph"
)

// checker verifies served answers against the oracle. For mutate-mix it
// knows every edge mutation the writer made and when, so a read is checked
// against each graph state it may have observed.
type checker struct {
	muts     map[*benchGraph][]*call // successful mutations, by start time
	farness  map[stateKey]float64
	rows     map[stateKey][]int32
	topkSeen map[string]error // verdict per distinct top-k answer
}

type stateKey struct {
	g *benchGraph
	e edge
	i int
}

func newChecker(calls []*call) *checker {
	ck := &checker{
		muts:     make(map[*benchGraph][]*call),
		farness:  make(map[stateKey]float64),
		rows:     make(map[stateKey][]int32),
		topkSeen: make(map[string]error),
	}
	for _, c := range calls {
		ck.record(c)
	}
	for _, ms := range ck.muts {
		sort.Slice(ms, func(i, j int) bool { return ms[i].start.Before(ms[j].start) })
	}
	return ck
}

// record notes c if it is a successful edge mutation. Calls must come in
// start order unless newChecker sorts them afterwards.
func (ck *checker) record(c *call) {
	if (c.kind == kInsert || c.kind == kDelete) && c.err == nil && c.status == http.StatusOK {
		ck.muts[c.g] = append(ck.muts[c.g], c)
	}
}

// states lists the graph states (as the extra edge over the generated graph)
// a request on c.g may have seen: the one after the last mutation finished
// before it was sent, and the one after each mutation overlapping it.
func (ck *checker) states(c *call) []edge {
	after := func(m *call) edge {
		if m.kind == kInsert {
			return m.e
		}
		return noEdge
	}
	out := []edge{noEdge}
	for _, m := range ck.muts[c.g] {
		switch {
		case m.end.Before(c.start):
			out[0] = after(m)
		case m.start.Before(c.end):
			out = append(out, after(m))
		}
	}
	return out
}

func (ck *checker) exactFarness(g *benchGraph, e edge, probe int) float64 {
	if e == noEdge {
		return g.exact[probe]
	}
	k := stateKey{g, e, probe}
	f, ok := ck.farness[k]
	if !ok {
		f = farnessOf(bfsRow(g.g, g.probes[probe], e))
		ck.farness[k] = f
	}
	return f
}

func (ck *checker) distance(g *benchGraph, e edge, source int, to graph.NodeID) int32 {
	if e == noEdge {
		return g.rows[source][to]
	}
	k := stateKey{g, e, source}
	row, ok := ck.rows[k]
	if !ok {
		row = bfsRow(g.g, g.sources[source], e)
		ck.rows[k] = row
	}
	return row[to]
}

// check verifies one answered call. For farness answers it also returns the
// relative error against the exact value (0 when exact-flagged).
func (ck *checker) check(c *call) (relErr float64, isFarness bool, err error) {
	if c.err != nil {
		return 0, false, c.err
	}
	if c.status != http.StatusOK {
		return 0, false, fmt.Errorf("status %d: %.200s", c.status, c.resp)
	}
	switch c.kind {
	case kEstimate:
		var b struct {
			Nodes, Samples int
			Partial        bool
		}
		if err := json.Unmarshal(c.resp, &b); err != nil {
			return 0, false, err
		}
		if b.Nodes != c.g.g.NumNodes() || b.Samples <= 0 || b.Partial {
			return 0, false, fmt.Errorf("estimate: %s", c.resp)
		}
	case kProbe, kFarness:
		var b struct {
			Node    graph.NodeID
			Farness float64
			Exact   bool
			Partial bool
		}
		if err := json.Unmarshal(c.resp, &b); err != nil {
			return 0, true, err
		}
		if b.Node != c.g.probes[c.probe] || b.Partial || !(b.Farness > 0) || math.IsInf(b.Farness, 0) {
			return 0, true, fmt.Errorf("farness: %s", c.resp)
		}
		relErr = math.Inf(1)
		for _, e := range ck.states(c) {
			x := ck.exactFarness(c.g, e, c.probe)
			if b.Exact && b.Farness != x {
				continue
			}
			relErr = math.Min(relErr, math.Abs(b.Farness-x)/x)
		}
		if math.IsInf(relErr, 1) {
			return 0, true, fmt.Errorf("farness: exact-flagged %v for node %d does not match the oracle", b.Farness, b.Node)
		}
		return relErr, true, nil
	case kDistExact, kSwitch, kDistAuto, kDistSketch:
		var b struct {
			Distance     int32
			Method       string
			Lower, Upper *int32
		}
		if err := json.Unmarshal(c.resp, &b); err != nil {
			return 0, false, err
		}
		for _, e := range ck.states(c) {
			x := ck.distance(c.g, e, c.source, c.to)
			if b.Distance == x {
				return 0, false, nil
			}
			if c.kind == kDistSketch && b.Method == "sketch" && b.Lower != nil && b.Upper != nil &&
				*b.Lower <= x && x <= *b.Upper && b.Distance == *b.Upper {
				return 0, false, nil
			}
		}
		return 0, false, fmt.Errorf("distance %s: %s does not match the oracle", c.path, c.resp)
	case kGraph:
		var b struct{ Nodes, Edges int }
		if err := json.Unmarshal(c.resp, &b); err != nil {
			return 0, false, err
		}
		if b.Nodes != c.g.g.NumNodes() || b.Edges != c.g.g.NumEdges() {
			return 0, false, fmt.Errorf("graph: %s", c.resp)
		}
	case kStatus:
		var b struct {
			Registry *struct{ Graphs []json.RawMessage }
		}
		if err := json.Unmarshal(c.resp, &b); err != nil {
			return 0, false, err
		}
		if b.Registry == nil || len(b.Registry.Graphs) == 0 {
			return 0, false, fmt.Errorf("status: no registry block")
		}
	case kTopK:
		key := c.g.id + "\x00" + string(c.resp)
		verdict, ok := ck.topkSeen[key]
		if !ok {
			var b struct {
				Nodes   []graph.NodeID
				Farness []float64
				Partial bool
			}
			if verdict = json.Unmarshal(c.resp, &b); verdict == nil {
				if b.Partial {
					verdict = fmt.Errorf("topk: partial answer")
				} else {
					verdict = verifyTopK(c.g.g, b.Nodes, b.Farness, 10, c.g.rows)
				}
			}
			ck.topkSeen[key] = verdict
		}
		return 0, false, verdict
	case kInsert, kDelete:
	}
	return 0, false, nil
}
