package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunRejectsCoincidentNodes loads a connected deployment whose nodes 1
// and 2 share a position: the E table is undefined there, so run must
// return an error rather than panic in the quadrant classification.
func TestRunRejectsCoincidentNodes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "coincident.json")
	data := `{"version": 1, "radius": 2, "area_side": 4, "source": 0, "x": [0, 1, 1], "y": [0, 1, 1]}`
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run(0, 1, 0, false, "", path)
	if err == nil || !strings.Contains(err.Error(), "distinct node positions") {
		t.Fatalf("run = %v, want a distinct-positions error", err)
	}
}
