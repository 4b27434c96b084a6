package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// benchmarkSpec is the part of BENCHMARK.json the smoke test reads.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSpecMatchesCode keeps BENCHMARK.json and the metric lists the
// program prints in step.
func TestSpecMatchesCode(t *testing.T) {
	spec := readSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, workloadNames())
	}
	names = nil
	for _, m := range spec.EndToEnd {
		names = append(names, m.Name)
	}
	if strings.Join(names, ",") != strings.Join(endToEnd, ",") {
		t.Errorf("BENCHMARK.json end_to_end %v, program %v", names, endToEnd)
	}
	var listed []string
	for _, l := range layerMetrics {
		if l.listed {
			listed = append(listed, l.name)
		}
	}
	names = nil
	for _, m := range spec.PerLayer {
		names = append(names, m.Name)
	}
	if strings.Join(names, ",") != strings.Join(listed, ",") {
		t.Errorf("BENCHMARK.json per_layer %v, program %v", names, listed)
	}
}

// TestSmoke runs every workload for one second, traced, against a server
// built from this tree, and checks that every metric BENCHMARK.json names
// is printed with its unit, that nothing failed, and that the trace file
// parses.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts servers and runs every workload")
	}
	spec := readSpec(t)
	dir := t.TempDir()
	cfg := config{workload: "all", seed: 11, window: time.Second, trace: true,
		traceOut: filepath.Join(dir, "trace.json"), binDir: dir}
	var stdout, stderr bytes.Buffer
	if code := run(cfg, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s\n%s", code, stdout.String(), stderr.String())
	}
	out := stdout.String()
	sections := strings.Split(out, "\n== ")[1:]
	if len(sections) != len(workloads) {
		t.Fatalf("%d workload sections, want %d:\n%s", len(sections), len(workloads), out)
	}
	for i, sec := range sections {
		name := workloads[i].name
		for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
			re := regexp.MustCompile(`(?m)^\s+` + regexp.QuoteMeta(m.Name) + `\s+\S+ ` + regexp.QuoteMeta(m.Unit) + `(\s|$)`)
			if !re.MatchString(sec) {
				t.Errorf("%s: metric %s [%s] not printed", name, m.Name, m.Unit)
			}
		}
		if !regexp.MustCompile(`(?m)^\s+error_rate\s+0 ratio`).MatchString(sec) {
			t.Errorf("%s: error_rate is not 0:\n%s", name, sec)
		}
	}
	if stderr.Len() > 0 {
		t.Errorf("stderr:\n%s", stderr.String())
	}

	lines := strings.Split(strings.TrimSpace(out), "\n")
	var last line
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line is not the result object: %v", err)
	}
	if !last.Correct || last.Failed != 0 || last.Attempted < 1 {
		t.Errorf("result line: %+v", last)
	}

	data, err := os.ReadFile(cfg.traceOut)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		Runs []struct {
			Workload string `json:"workload"`
			Spans    []span `json:"spans"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(data, &trace); err != nil {
		t.Fatalf("trace file does not parse: %v", err)
	}
	if len(trace.Runs) != len(workloads) {
		t.Fatalf("trace has %d runs, want %d", len(trace.Runs), len(workloads))
	}
	for _, r := range trace.Runs {
		if len(r.Spans) == 0 {
			t.Errorf("%s: no spans", r.Workload)
		}
	}
}
