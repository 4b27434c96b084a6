package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"mlbs"
)

var updateGoldens = flag.Bool("update", false, "rewrite testdata/*.golden from the current handlers")

// elapsedRe matches the one wall-clock field of every /v1/* body: indented
// JSON writes `"elapsed_ns": N`, the NDJSON sweep stream `"elapsed_ns":N`.
var elapsedRe = regexp.MustCompile(`("elapsed_ns": ?)[0-9]+`)

// TestWireGoldens pins the /v1/* response bodies byte for byte, with
// elapsed_ns zeroed. The cases run in order against one single-worker
// server, so "plan_warm" and "plan_instance" are cache hits on the entry
// "plan_cold" created: the inline instance is the generator's own
// deployment, so it must land on the same digest and plan. The error
// cases pin the envelope of every request-level failure each endpoint
// reports; the sweep cases pin the NDJSON stream and its bad-request
// envelope. Regenerate only deliberately with
// `go test ./cmd/mlb-serve -run TestWireGoldens -update`.
func TestWireGoldens(t *testing.T) {
	svc := mlbs.NewService(mlbs.ServiceConfig{Workers: 1})
	defer svc.Close()
	ts := httptest.NewServer(newMux(svc, newServeObs(0, 0)))
	defer ts.Close()

	in, err := mlbs.PlanGenerator{N: 100, Seed: 7}.Instance()
	if err != nil {
		t.Fatal(err)
	}
	inJSON, err := mlbs.EncodeInstance(in)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := mlbs.PaperDeployment(80, 3)
	if err != nil {
		t.Fatal(err)
	}
	failSource := fmt.Sprintf(`{"n":80,"seed":3,"delta":{"version":1,"events":[{"kind":"fail","node":%d}]}}`, dep.Source)
	cases := []struct {
		name, path, body string
		status           int
	}{
		{"plan_cold", "/v1/plan", `{"n":100,"seed":7}`, http.StatusOK},
		{"plan_warm", "/v1/plan", `{"n":100,"seed":7}`, http.StatusOK},
		{"plan_instance", "/v1/plan", `{"instance":` + string(inJSON) + `}`, http.StatusOK},
		{"plan_replay", "/v1/plan", `{"n":100,"seed":7,"replay":true}`, http.StatusOK},
		{"plan_duty", "/v1/plan", `{"n":80,"seed":3,"r":10}`, http.StatusOK},
		{"plan_k2", "/v1/plan", `{"n":100,"seed":7,"channels":2}`, http.StatusOK},
		{"plan_sinr", "/v1/plan", `{"n":100,"seed":7,"sinr_alpha":3,"sinr_beta":1}`, http.StatusOK},
		{"plan_emodel", "/v1/plan", `{"n":100,"seed":7,"scheduler":"emodel"}`, http.StatusOK},
		{"aggregate", "/v1/aggregate", `{"n":80,"seed":3,"r":10,"channels":4}`, http.StatusOK},
		{"validate", "/v1/validate", `{"n":80,"seed":3,"loss_rate":0.1,"loss_seed":1,"trials":100}`, http.StatusOK},
		{"validate_repair", "/v1/validate", `{"n":80,"seed":3,"loss_rate":0.1,"loss_seed":1,"trials":100,"target":0.98}`, http.StatusOK},
		{"replan", "/v1/replan", `{"n":80,"seed":3,"delta":{"version":1,"events":[
			{"kind":"jitter","node":5,"x":0.2,"y":-0.1},{"kind":"join","x":25,"y":25}]}}`, http.StatusOK},
		{"error", "/v1/plan", `{"n":0}`, http.StatusBadRequest},
		{"error_plan_malformed", "/v1/plan", `{"n":`, http.StatusBadRequest},
		{"error_aggregate_malformed", "/v1/aggregate", `{"n":`, http.StatusBadRequest},
		{"error_validate_malformed", "/v1/validate", `{"n":`, http.StatusBadRequest},
		{"error_replan_malformed", "/v1/replan", `{"n":`, http.StatusBadRequest},
		{"error_aggregate_scheduler", "/v1/aggregate", `{"n":80,"seed":3,"scheduler":"nosuch"}`, http.StatusBadRequest},
		{"error_validate_trials", "/v1/validate", `{"n":80,"seed":3,"trials":100001}`, http.StatusBadRequest},
		{"error_replan_no_delta", "/v1/replan", `{"n":80,"seed":3}`, http.StatusBadRequest},
		{"error_replan_source_failed", "/v1/replan", failSource, http.StatusUnprocessableEntity},
		{"sweep", "/v1/sweep", `{"sizes":[60],"seeds":[1,2]}`, http.StatusOK},
		{"sweep_no_sizes", "/v1/sweep", `{}`, http.StatusBadRequest},
		{"sweep_bad_scheduler", "/v1/sweep", `{"sizes":[60],"scheduler":"nosuch"}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		resp, err := http.Post(ts.URL+c.path, "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != c.status {
			t.Fatalf("%s: status %d, want %d:\n%s", c.name, resp.StatusCode, c.status, body)
		}
		body = elapsedRe.ReplaceAll(body, []byte(`${1}0`))
		path := filepath.Join("testdata", c.name+".golden")
		if *updateGoldens {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, body, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(body, want) {
			t.Errorf("%s: body differs from %s\n got: %.400s\nwant: %.400s", c.name, path, body, want)
		}
	}
}
