package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	g := gen.Social(600, 3)
	s, err := New(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp
}

func TestHealthAndGraph(t *testing.T) {
	_, ts := newTestServer(t)
	var h map[string]string
	resp := getJSON(t, ts.URL+"/healthz", &h)
	if resp.StatusCode != 200 || h["status"] != "ok" {
		t.Fatalf("healthz: %d %v", resp.StatusCode, h)
	}
	var gb graphBody
	resp = getJSON(t, ts.URL+"/v1/graph", &gb)
	if resp.StatusCode != 200 || gb.Nodes == 0 || gb.Edges == 0 {
		t.Fatalf("graph: %d %+v", resp.StatusCode, gb)
	}
}

func TestEstimateEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	body := bytes.NewBufferString(`{"techniques":"BRIC","fraction":0.3,"seed":1}`)
	resp, err := http.Post(ts.URL+"/v1/estimate", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var eb estimateBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if eb.Nodes == 0 || eb.Samples == 0 || eb.ReducedTo >= eb.Nodes || eb.MeanFarness <= 0 {
		t.Fatalf("estimate body: %+v", eb)
	}
	// Bad techniques string.
	resp2, err := http.Post(ts.URL+"/v1/estimate", "application/json",
		bytes.NewBufferString(`{"techniques":"XYZ"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != 400 {
		t.Fatalf("bad techniques: status %d", resp2.StatusCode)
	}
}

func TestFarnessEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	var fb farnessBody
	resp := getJSON(t, ts.URL+"/v1/farness/0?fraction=0.3", &fb)
	if resp.StatusCode != 200 || fb.Farness <= 0 || fb.Closeness <= 0 {
		t.Fatalf("farness: %d %+v", resp.StatusCode, fb)
	}
	// Caching: second call must return the identical value.
	var fb2 farnessBody
	getJSON(t, ts.URL+"/v1/farness/0?fraction=0.3", &fb2)
	if fb2.Farness != fb.Farness {
		t.Fatal("cache miss changed the value")
	}
	resp = getJSON(t, ts.URL+"/v1/farness/99999999", nil)
	if resp.StatusCode != 404 {
		t.Fatalf("out of range: %d", resp.StatusCode)
	}
	resp = getJSON(t, ts.URL+"/v1/farness/notanumber", nil)
	if resp.StatusCode != 400 {
		t.Fatalf("bad id: %d", resp.StatusCode)
	}
}

func TestTopKEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	var tb topkBody
	resp := getJSON(t, ts.URL+"/v1/topk?k=5&fraction=0.3", &tb)
	if resp.StatusCode != 200 || len(tb.Nodes) != 5 || len(tb.Farness) != 5 {
		t.Fatalf("topk: %d %+v", resp.StatusCode, tb)
	}
	for i := 1; i < len(tb.Farness); i++ {
		if tb.Farness[i] < tb.Farness[i-1] {
			t.Fatal("topk not sorted")
		}
	}
	resp = getJSON(t, ts.URL+"/v1/topk?k=zero", nil)
	if resp.StatusCode != 400 {
		t.Fatalf("bad k: %d", resp.StatusCode)
	}
}

func TestEdgeMutationInvalidatesCache(t *testing.T) {
	s, ts := newTestServer(t)
	// Prime the cache.
	var before farnessBody
	getJSON(t, ts.URL+"/v1/farness/0?fraction=0.5&techniques=C", &before)

	// Find two distant nodes to connect. (The dynamic index is built lazily
	// on first mutation, so read the graph off the current generation.)
	g := s.gen.Load().g
	u, v := graph.NodeID(0), graph.NodeID(-1)
	for cand := g.NumNodes() - 1; cand > 0; cand-- {
		if !g.HasEdge(u, graph.NodeID(cand)) {
			v = graph.NodeID(cand)
			break
		}
	}
	if v < 0 {
		t.Skip("no non-adjacent pair found")
	}
	body, _ := json.Marshal(edgeBody{U: u, V: v})
	resp, err := http.Post(ts.URL+"/v1/edges", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var er edgeResult
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 || er.Edges != g.NumEdges()+1 {
		t.Fatalf("insert: %d %+v", resp.StatusCode, er)
	}

	// Delete it again via the API.
	req, _ := http.NewRequest(http.MethodDelete,
		fmt.Sprintf("%s/v1/edges?u=%d&v=%d", ts.URL, u, v), nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("delete: %d", resp.StatusCode)
	}
	// Deleting a non-existent edge errors.
	req, _ = http.NewRequest(http.MethodDelete,
		fmt.Sprintf("%s/v1/edges?u=%d&v=%d", ts.URL, u, v), nil)
	resp, _ = http.DefaultClient.Do(req)
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("double delete: %d", resp.StatusCode)
	}
}

func TestMethodGuards(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Post(ts.URL+"/v1/graph", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v1/graph: %d", resp.StatusCode)
	}
	resp = getJSON(t, ts.URL+"/v1/estimate", nil)
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/estimate: %d", resp.StatusCode)
	}
}

func TestParseTechniques(t *testing.T) {
	if _, err := ParseTechniques("BRIC"); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseTechniques("b+r i c s"); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseTechniques("Q"); err == nil {
		t.Fatal("want error for unknown letter")
	}
}

func TestDistanceEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	var db struct {
		Distance int32 `json:"distance"`
	}
	resp := getJSON(t, ts.URL+"/v1/distance?from=0&to=1", &db)
	if resp.StatusCode != 200 || db.Distance < 1 {
		t.Fatalf("distance: %d %+v", resp.StatusCode, db)
	}
	resp = getJSON(t, ts.URL+"/v1/distance?from=0&to=999999", nil)
	if resp.StatusCode != 404 {
		t.Fatalf("out of range: %d", resp.StatusCode)
	}
	resp = getJSON(t, ts.URL+"/v1/distance?from=x", nil)
	if resp.StatusCode != 400 {
		t.Fatalf("bad params: %d", resp.StatusCode)
	}
}

// TestDistanceTimeout: /v1/distance shares the estimation endpoints' context
// plumbing — a malformed ?timeout= is a 400, an expired one a 504.
func TestDistanceTimeout(t *testing.T) {
	_, ts := newTestServer(t)
	resp := getJSON(t, ts.URL+"/v1/distance?from=0&to=1&timeout=bananas", nil)
	if resp.StatusCode != 400 {
		t.Fatalf("bad timeout: %d", resp.StatusCode)
	}
	resp = getJSON(t, ts.URL+"/v1/distance?from=0&to=1&timeout=1ns", nil)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("expired timeout: %d", resp.StatusCode)
	}
}
