package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// edgeList returns g's undirected edges, u < v, in CSR order.
func edgeList(g *graph.Graph) [][2]graph.NodeID {
	var out [][2]graph.NodeID
	g.Edges(func(u, v graph.NodeID) { out = append(out, [2]graph.NodeID{u, v}) })
	return out
}

// without returns edges minus e (given with e[0] < e[1]).
func without(edges [][2]graph.NodeID, e [2]graph.NodeID) [][2]graph.NodeID {
	out := make([][2]graph.NodeID, 0, len(edges))
	for _, f := range edges {
		if f != e {
			out = append(out, f)
		}
	}
	return out
}

// nonEdges returns up to k pairwise disjoint node pairs {i, n-1-i} that are
// not edges of g.
func nonEdges(g *graph.Graph, k int) [][2]graph.NodeID {
	var out [][2]graph.NodeID
	n := graph.NodeID(g.NumNodes())
	for i := graph.NodeID(0); i < n/2 && len(out) < k; i++ {
		if !g.HasEdge(i, n-1-i) {
			out = append(out, [2]graph.NodeID{i, n - 1 - i})
		}
	}
	return out
}

// findEdge returns the first edge of g whose removal leaves it connected
// (bridge == false) or disconnected (bridge == true).
func findEdge(t *testing.T, g *graph.Graph, bridge bool) [2]graph.NodeID {
	t.Helper()
	edges := edgeList(g)
	for _, e := range edges {
		if graph.IsConnected(graph.FromEdges(g.NumNodes(), without(edges, e))) != bridge {
			return e
		}
	}
	t.Fatalf("no edge with bridge=%v", bridge)
	return [2]graph.NodeID{}
}

// sameCSR reports whether a and b are word-identical CSR graphs.
func sameCSR(a, b *graph.Graph) bool {
	ao, aa := a.CSR()
	bo, ba := b.CSR()
	return slices.Equal(ao, bo) && slices.Equal(aa, ba)
}

// mutateHTTP sends one insert (POST) or delete (DELETE) of {u, v} to a live
// server and returns the status and body.
func mutateHTTP(t *testing.T, client *http.Client, base string, e [2]graph.NodeID, insert bool) (int, []byte) {
	t.Helper()
	if insert {
		return httpDo(t, client, http.MethodPost, base+"/v1/edges", fmt.Sprintf(`{"u":%d,"v":%d}`, e[0], e[1]))
	}
	return httpDo(t, client, http.MethodDelete, fmt.Sprintf("%s/v1/edges?u=%d&v=%d", base, e[0], e[1]), "")
}

// TestMutationMatchesFreshServer applies an insert, a delete and a second
// insert to a live server over HTTP, one table row per generator family.
// After every step the installed generation must hold exactly the CSR a
// from-scratch build of the expected edge set produces, and the estimate,
// farness and top-k answers must be byte-identical to those of a fresh
// server built over that graph.
func TestMutationMatchesFreshServer(t *testing.T) {
	const n = 400
	families := []struct {
		name string
		g    *graph.Graph
	}{
		{"web", graph.Connect(gen.Web(n, 61))},
		{"social", graph.Connect(gen.Social(n, 62))},
		{"community", graph.Connect(gen.Community(n, 63))},
		{"road", graph.Connect(gen.Road(n, 64))},
	}
	reads := []struct{ method, path, body string }{
		{http.MethodPost, "/v1/estimate", `{"techniques":"BRIC","fraction":0.2,"seed":3}`},
		{http.MethodGet, "/v1/farness/1?techniques=BRIC&fraction=0.2&seed=3", ""},
		{http.MethodGet, "/v1/topk?k=5&fraction=0.2&seed=3", ""},
	}
	for _, fam := range families {
		t.Run(fam.name, func(t *testing.T) {
			s, err := New(fam.g, 2)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(s.Close)
			ts := httptest.NewServer(s)
			t.Cleanup(ts.Close)
			client := ts.Client()

			add := nonEdges(fam.g, 2)
			if len(add) < 2 {
				t.Fatal("fewer than two non-edges")
			}
			edges := edgeList(fam.g)
			steps := []struct {
				e      [2]graph.NodeID
				insert bool
			}{
				{add[0], true},
				{findEdge(t, fam.g, false), false},
				{add[1], true},
			}
			for i, st := range steps {
				if st.insert {
					edges = append(edges, st.e)
				} else {
					edges = without(edges, st.e)
				}
				want := graph.FromEdges(fam.g.NumNodes(), edges)
				code, body := mutateHTTP(t, client, ts.URL, st.e, st.insert)
				if code != http.StatusOK {
					t.Fatalf("step %d (%v insert=%v): %d %s", i, st.e, st.insert, code, body)
				}
				var er edgeResult
				if err := json.Unmarshal(body, &er); err != nil || er.Edges != want.NumEdges() {
					t.Fatalf("step %d: body %s, want edges %d (err %v)", i, body, want.NumEdges(), err)
				}
				if !sameCSR(s.gen.Load().g, want) {
					t.Fatalf("step %d: mutated CSR differs from a from-scratch build", i)
				}
				fresh, err := New(want, 2)
				if err != nil {
					t.Fatal(err)
				}
				for _, rd := range reads {
					code, got := httpDo(t, client, rd.method, ts.URL+rd.path, rd.body)
					w := doJSON(fresh, rd.method, rd.path, rd.body)
					if code != http.StatusOK || w.Code != http.StatusOK {
						t.Fatalf("step %d %s: mutated %d, fresh %d", i, rd.path, code, w.Code)
					}
					if !bytes.Equal(got, w.Body.Bytes()) {
						t.Fatalf("step %d %s: mutated server answered\n%s\nfresh server answered\n%s", i, rd.path, got, w.Body.Bytes())
					}
				}
				fresh.Close()
			}
		})
	}
}

// TestMutationRefusals: a delete that would disconnect the graph is a 400
// that leaves the generation and its cache untouched, and a server whose
// graph was assumed connected but is not refuses every change that leaves it
// disconnected — including a no-op insert — while accepting one that joins
// its two components.
func TestMutationRefusals(t *testing.T) {
	t.Run("bridge", func(t *testing.T) {
		g := graph.Connect(gen.Road(400, 64))
		s, err := New(g, 2)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		if w := doJSON(s, http.MethodPost, "/v1/estimate", `{"techniques":"C","fraction":0.2,"seed":1}`); w.Code != http.StatusOK {
			t.Fatalf("prime cache: %d %s", w.Code, w.Body)
		}
		before := s.statusSnapshot()
		e := findEdge(t, g, true)
		w := doJSON(s, http.MethodDelete, fmt.Sprintf("/v1/edges?u=%d&v=%d", e[0], e[1]), "")
		if w.Code != http.StatusBadRequest {
			t.Fatalf("bridge delete %v: %d %s, want 400", e, w.Code, w.Body)
		}
		after := s.statusSnapshot()
		if after.Generation != before.Generation || after.CacheEntries != before.CacheEntries || before.CacheEntries != 1 {
			t.Fatalf("refused delete moved generation %d -> %d, cache entries %d -> %d",
				before.Generation, after.Generation, before.CacheEntries, after.CacheEntries)
		}
	})
	t.Run("assumed-connected", func(t *testing.T) {
		// Two disjoint 4-cycles: 0-1-2-3 and 4-5-6-7.
		g := graph.FromEdges(8, [][2]graph.NodeID{
			{0, 1}, {1, 2}, {2, 3}, {3, 0},
			{4, 5}, {5, 6}, {6, 7}, {7, 4},
		})
		s, err := NewWithConfig(g, Config{Workers: 1, AssumeConnected: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		for _, body := range []string{`{"u":0,"v":2}`, `{"u":0,"v":1}`, `{"u":3,"v":3}`} {
			if w := doJSON(s, http.MethodPost, "/v1/edges", body); w.Code != http.StatusBadRequest {
				t.Fatalf("insert %s on a disconnected graph: %d %s, want 400", body, w.Code, w.Body)
			}
		}
		if got := s.statusSnapshot().Generation; got != 1 {
			t.Fatalf("refused inserts moved the generation to %d", got)
		}
		if w := doJSON(s, http.MethodPost, "/v1/edges", `{"u":0,"v":4}`); w.Code != http.StatusOK {
			t.Fatalf("bridging insert: %d %s, want 200", w.Code, w.Body)
		}
		if got := s.statusSnapshot().Generation; got != 2 {
			t.Fatalf("bridging insert left the generation at %d, want 2", got)
		}
	})
}
