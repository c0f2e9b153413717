package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
)

// buildBricsd compiles bricsd from the enclosing repository.
func buildBricsd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "bricsd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/bricsd")
	cmd.Dir = ".."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build bricsd: %v\n%s", err, out)
	}
	return bin
}

// TestSmoke runs every workload, untraced and traced, on tiny graphs and
// requires every answer to pass the oracle and every metric to be reported.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts bricsd")
	}
	bin := buildBricsd(t)
	root := t.TempDir()
	for _, name := range []string{"estimate-cold", "query-warm", "mutate-mix"} {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", name, trace), func(t *testing.T) {
				rep, err := run(config{
					workload: name, seed: 7, seconds: 1.5, trace: trace, root: root, bricsd: bin,
					work: filepath.Join(root, "work", name), scale: 0.05,
				})
				if err != nil {
					t.Fatal(err)
				}
				// The 90% span-coverage gate is meant for full-scale graphs: on
				// these tiny ones every request takes microseconds and the
				// loopback jitter alone can exceed a tenth of it. Every other
				// failure is an answer that disagrees with the oracle.
				failed := rep.Failed
				for _, f := range rep.Failures {
					if strings.HasPrefix(f, "trace coverage:") {
						failed--
					}
				}
				if rep.Attempted == 0 || failed != 0 {
					t.Fatalf("attempted %d failed %d: %v", rep.Attempted, rep.Failed, rep.Failures)
				}
				want := endToEndNames
				if trace {
					want = nil
					for _, m := range perLayerMetrics() {
						want = append(want, m.name)
					}
				}
				if got := sortedKeys(rep.Metrics); fmt.Sprint(got) != fmt.Sprint(sorted(want)) {
					t.Fatalf("metrics %v, want %v", got, sorted(want))
				}
			})
		}
	}
}

func sortedKeys(m map[string]metric) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sorted(xs []string) []string {
	out := append([]string(nil), xs...)
	sort.Strings(out)
	return out
}

func oracleGraph(t *testing.T) *benchGraph {
	t.Helper()
	g := gen.Web(300, 5)
	if !graph.IsConnected(g) {
		g = graph.Connect(g)
	}
	bg := &benchGraph{id: "web", g: g}
	prepareOracle(bg, 1, 8, 4)
	return bg
}

// TestCheckerCatchesCorruptOracle feeds the checker answers that match the
// oracle, then corrupts one oracle value and expects a failure.
func TestCheckerCatchesCorruptOracle(t *testing.T) {
	bg := oracleGraph(t)
	ck := newChecker(nil)
	now := time.Now()
	far := farnessCall(kFarness, bg, 3, 1)
	far.status, far.start, far.end = 200, now, now
	far.resp = []byte(fmt.Sprintf(`{"node":%d,"farness":%v,"exact":true}`, bg.probes[3], bg.exact[3]))
	dist := distanceCall(kDistExact, bg, 12345<<20|2)
	dist.status, dist.start, dist.end = 200, now, now
	dist.resp = []byte(fmt.Sprintf(`{"distance":%d,"method":"exact"}`, bg.rows[dist.source][dist.to]))
	for _, c := range []*call{far, dist} {
		if _, _, err := ck.check(c); err != nil {
			t.Fatalf("%s: correct answer rejected: %v", c.kind, err)
		}
	}
	bg.exact[3]++
	if _, _, err := ck.check(far); err == nil {
		t.Fatal("farness: corrupted oracle value not caught")
	}
	bg.rows[dist.source][dist.to]++
	if _, _, err := ck.check(dist); err == nil {
		t.Fatal("distance: corrupted oracle value not caught")
	}
}

// TestVerifyTopK checks the top-k oracle against brute force.
func TestVerifyTopK(t *testing.T) {
	bg := oracleGraph(t)
	n := bg.g.NumNodes()
	all := make([]float64, n)
	order := make([]graph.NodeID, n)
	for v := range all {
		all[v] = farnessOf(bfsRow(bg.g, graph.NodeID(v), noEdge))
		order[v] = graph.NodeID(v)
	}
	sort.SliceStable(order, func(i, j int) bool { return all[order[i]] < all[order[j]] })
	const k = 10
	nodes := append([]graph.NodeID(nil), order[:k]...)
	far := make([]float64, k)
	for i, v := range nodes {
		far[i] = all[v]
	}
	if err := verifyTopK(bg.g, nodes, far, k, bg.rows); err != nil {
		t.Fatalf("true top-k rejected: %v", err)
	}
	// Swap the best node for the first one whose farness is strictly worse
	// than the k-th: a strictly closer node is then left out.
	for _, v := range order[k:] {
		if all[v] > far[k-1] {
			bad := append([]graph.NodeID{}, nodes[1:]...)
			badFar := append([]float64{}, far[1:]...)
			bad, badFar = append(bad, v), append(badFar, all[v])
			if err := verifyTopK(bg.g, bad, badFar, k, bg.rows); err == nil {
				t.Fatal("top-k missing a closer node accepted")
			}
			return
		}
	}
	t.Fatal("no node worse than the k-th")
}

// TestSpanSelfTimesAddUp checks that self times partition a request's
// wall time when children fit inside their parents.
func TestSpanSelfTimesAddUp(t *testing.T) {
	var tr tracer
	root := tr.add(0, -1, "http", 10*time.Millisecond)
	srv := tr.add(0, root, "server", 8*time.Millisecond)
	est := tr.add(0, srv, "core.estimate", 6*time.Millisecond)
	tr.add(0, est, "core.preprocess", 2*time.Millisecond)
	tr.add(0, est, "core.traverse", 3*time.Millisecond)
	self := tr.selfTimes()
	var sum float64
	for _, s := range self {
		sum += s
	}
	if math.Abs(sum-10) > 1e-9 {
		t.Fatalf("self times sum to %v ms, want 10", sum)
	}
	if want := []float64{2, 2, 1, 2, 3}; fmt.Sprint(self) != fmt.Sprint(want) {
		t.Fatalf("self times %v, want %v", self, want)
	}
	// A child re-executed slower than its parent leaves the parent no self
	// time rather than a negative one.
	tr.add(0, srv, "bfs.p2p", 5*time.Millisecond)
	if s := tr.selfTimes()[srv]; s != 0 {
		t.Fatalf("overflowing children give self time %v, want 0", s)
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json declares exactly the metrics
// the benchmark reports, and every workload but the manual ones.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var wl, e2e, layer, wantLayer []string
	for _, w := range b.Workloads {
		wl = append(wl, w.Name)
	}
	for _, m := range b.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range b.PerLayer {
		layer = append(layer, m.Name+" "+m.Unit)
	}
	for _, m := range perLayerMetrics() {
		wantLayer = append(wantLayer, m.name+" "+m.unit)
	}
	var wantWl []string
	for name, w := range workloads {
		if !w.manual {
			wantWl = append(wantWl, name)
		}
	}
	for _, c := range []struct {
		what      string
		got, want []string
	}{{"workloads", wl, wantWl}, {"end_to_end", e2e, endToEndNames}, {"per_layer", layer, wantLayer}} {
		if fmt.Sprint(sorted(c.got)) != fmt.Sprint(sorted(c.want)) {
			t.Errorf("%s: BENCHMARK.json has %v, benchmark reports %v", c.what, sorted(c.got), sorted(c.want))
		}
	}
}
