package main

import (
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/server"
)

// TestReadySingleCountsLoad: the start-up "ready in" figure includes the
// graph load, not just the server construction after it.
func TestReadySingleCountsLoad(t *testing.T) {
	const loadTime = 20 * time.Millisecond
	s, g, name, took, err := readySingle(server.Config{}, func() (loaded, string, error) {
		time.Sleep(loadTime)
		return connectIfNeeded(gen.Community(200, 1)), "community", nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if name != "community" || g.g.NumNodes() == 0 {
		t.Fatalf("readySingle returned %q with %d nodes", name, g.g.NumNodes())
	}
	if took < loadTime {
		t.Fatalf("ready in %v, shorter than the %v load it includes", took, loadTime)
	}
}
