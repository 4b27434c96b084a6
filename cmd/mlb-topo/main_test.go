package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mlbs"
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
	err := run(io.Discard, 0, 1, 0, false, "", path)
	if err == nil || !strings.Contains(err.Error(), "distinct node positions") {
		t.Fatalf("run = %v, want a distinct-positions error", err)
	}
}

// writeDeployment saves the n-node paper deployment as JSON and returns
// its path.
func writeDeployment(t *testing.T, n int) string {
	t.Helper()
	dep, err := mlbs.PaperDeployment(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	data, err := mlbs.EncodeDeployment(dep)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "dep.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunLoadsLargerDutyCycledDeployment loads a 200-node deployment
// under r=10 with -n at its default 150: the wake schedule must be sized
// by the loaded graph, not by the flag.
func TestRunLoadsLargerDutyCycledDeployment(t *testing.T) {
	path := writeDeployment(t, 200)
	var out bytes.Buffer
	if err := run(&out, 150, 1, 10, false, "", path); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "of 200; max E value") {
		t.Fatalf("report does not describe the 200-node deployment:\n%s", out.String())
	}
}

// TestRunLoadOmitsGeneratorStats pins that a loaded deployment's report
// carries no generator statistics: nothing was drawn, so placement and
// source draw counts (and the generator's eccentricity requirement) do
// not describe it. Its source and eccentricity are real data and stay. A
// generated deployment still reports everything.
func TestRunLoadOmitsGeneratorStats(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, 0, 1, 0, false, "", writeDeployment(t, 150)); err != nil {
		t.Fatal(err)
	}
	for _, s := range []string{"placements drawn", "source draws", "paper requires"} {
		if strings.Contains(out.String(), s) {
			t.Errorf("loaded deployment report mentions %q:\n%s", s, out.String())
		}
	}
	if !strings.Contains(out.String(), "source=") {
		t.Errorf("loaded deployment report lacks its source:\n%s", out.String())
	}
	out.Reset()
	if err := run(&out, 150, 1, 0, false, "", ""); err != nil {
		t.Fatal(err)
	}
	for _, s := range []string{"placements drawn", "paper requires"} {
		if !strings.Contains(out.String(), s) {
			t.Errorf("generated deployment report lacks %q:\n%s", s, out.String())
		}
	}
}
