package main

import (
	"strings"
	"testing"
)

func TestParseOnly(t *testing.T) {
	want, err := parseOnly("")
	if err != nil || len(want) != 0 {
		t.Fatalf(`parseOnly("") = %v, %v; want the empty (run-all) set`, want, err)
	}
	want, err = parseOnly(" Traversal,bicc, ")
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 2 || !want["traversal"] || !want["bicc"] {
		t.Fatalf("parseOnly = %v, want {traversal, bicc}", want)
	}
	for _, bad := range []string{"frontier", "table1,tabel1"} {
		_, err := parseOnly(bad)
		if err == nil {
			t.Fatalf("parseOnly(%q) accepted an unknown name", bad)
		}
		if !strings.Contains(err.Error(), "reduction") {
			t.Fatalf("parseOnly(%q) error %q does not list the valid names", bad, err)
		}
	}
}
