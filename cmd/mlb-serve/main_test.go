package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mlbs"
)

// TestDebugTracesEndpoints drives the flight-recorder HTTP surface: a cold
// plan must leave a retained trace whose span tree carries the cache,
// search and improve phases, retrievable both from the index and by
// digest; /metrics must expose the new engine counters and the
// hit-latency histogram in standard Prometheus form.
func TestDebugTracesEndpoints(t *testing.T) {
	svc := mlbs.NewService(mlbs.ServiceConfig{Workers: 2})
	defer svc.Close()
	ts := httptest.NewServer(newMux(svc, newServeObs(0, 0)))
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/plan", "application/json",
		strings.NewReader(`{"n":100,"seed":7,"improve_budget_ms":20}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var plan planHTTPResponse
	if err := json.NewDecoder(resp.Body).Decode(&plan); err != nil {
		t.Fatal(err)
	}
	if len(plan.Digest) != 64 || plan.CacheHit {
		t.Fatalf("cold plan response: %+v", plan)
	}

	// Index: the trace is in the ring (and, as the only request, on the
	// slow board) with its digest attached.
	ir, err := http.Get(ts.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer ir.Body.Close()
	var idx tracesIndexResponse
	if err := json.NewDecoder(ir.Body).Decode(&idx); err != nil {
		t.Fatal(err)
	}
	if idx.Seen != 1 || len(idx.Recent) != 1 || len(idx.Slowest) != 1 {
		t.Fatalf("index after one request: seen=%d recent=%d slowest=%d", idx.Seen, len(idx.Recent), len(idx.Slowest))
	}
	if idx.Recent[0].Digest != plan.Digest || idx.Recent[0].Endpoint != "/v1/plan" {
		t.Fatalf("retained trace: %+v", idx.Recent[0])
	}

	// By digest: the span tree carries the cache, search and improve
	// phases (the acceptance contract).
	tr, err := http.Get(ts.URL + "/debug/traces/" + plan.Digest)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Body.Close()
	if tr.StatusCode != http.StatusOK {
		t.Fatalf("trace by digest: status %d", tr.StatusCode)
	}
	var snap mlbs.TraceSnapshot
	if err := json.NewDecoder(tr.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	phases := map[string]bool{}
	for _, c := range snap.Root.Children {
		phases[c.Name] = true
	}
	for _, want := range []string{"cache", "search", "improve"} {
		if !phases[want] {
			t.Fatalf("trace lacks %q phase: have %v", want, phases)
		}
	}
	for _, c := range snap.Root.Children {
		if c.Name != "search" {
			continue
		}
		if exp, _ := c.Attrs["expanded"].(float64); exp <= 0 {
			t.Fatalf("search span carries no engine counters: %v", c.Attrs)
		}
	}

	// Unknown digest is a 404, not an empty 200.
	nf, err := http.Get(ts.URL + "/debug/traces/deadbeef")
	if err != nil {
		t.Fatal(err)
	}
	nf.Body.Close()
	if nf.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown digest: status %d", nf.StatusCode)
	}

	// The expanded Prometheus surface: HELP lines, the engine totals, and
	// a conformant histogram for miss latency.
	mr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mr.Body.Close()
	mb, err := io.ReadAll(mr.Body)
	if err != nil {
		t.Fatal(err)
	}
	metrics := string(mb)
	for _, want := range []string{
		"# HELP mlbs_plan_requests_total",
		"# TYPE mlbs_plan_miss_latency_seconds histogram",
		"mlbs_plan_miss_latency_seconds_bucket{le=\"+Inf\"} 1",
		"mlbs_plan_miss_latency_seconds_count 1",
		"# TYPE mlbs_plan_hit_latency_seconds histogram",
		"mlbs_http_request_duration_seconds_bucket{endpoint=\"/v1/plan\",le=\"+Inf\"} 1",
		"mlbs_plan_cache_capacity",
		"mlbs_improve_queue_depth",
		"mlbs_traces_recorded_total 1",
		"mlbs_goroutines",
		"mlbs_gc_cycles_total",
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("metrics missing %q:\n%s", want, metrics)
		}
	}
	if !strings.Contains(metrics, "mlbs_engine_states_total ") ||
		strings.Contains(metrics, "mlbs_engine_states_total 0\n") {
		t.Fatalf("engine states total missing or zero after a cold search:\n%s", metrics)
	}
}

// TestParseServeFlagsDefaults pins the satellite fix: the server must ship
// with non-zero read-header/read/idle timeouts so a single slow client
// cannot pin a connection forever.
func TestParseServeFlagsDefaults(t *testing.T) {
	cfg, err := parseServeFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.readHeaderTimeout <= 0 || cfg.readTimeout <= 0 || cfg.idleTimeout <= 0 {
		t.Fatalf("default timeouts must be positive: %+v", cfg)
	}
	if cfg.workers <= 0 {
		t.Fatalf("workers default %d", cfg.workers)
	}
	if cfg.addr != ":8080" || cfg.cache != 4096 || cfg.queue != 16 {
		t.Fatalf("defaults drifted: %+v", cfg)
	}
}

func TestParseServeFlagsPlumbing(t *testing.T) {
	cfg, err := parseServeFlags([]string{
		"-addr", "127.0.0.1:9999", "-workers", "3", "-cache", "7", "-queue", "2",
		"-read-header-timeout", "1s", "-read-timeout", "2s", "-idle-timeout", "3s",
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := buildServer(cfg, http.NewServeMux())
	if srv.Addr != "127.0.0.1:9999" {
		t.Fatalf("addr %q", srv.Addr)
	}
	if srv.ReadHeaderTimeout != time.Second || srv.ReadTimeout != 2*time.Second || srv.IdleTimeout != 3*time.Second {
		t.Fatalf("timeouts not plumbed: %+v", srv)
	}
	if cfg.workers != 3 || cfg.cache != 7 || cfg.queue != 2 {
		t.Fatalf("pool flags not plumbed: %+v", cfg)
	}
	if _, err := parseServeFlags([]string{"-read-timeout", "nonsense"}); err == nil {
		t.Fatal("bad duration accepted")
	}
}

// decodeResponse reads a response body into v and also returns its
// top-level fields as raw bytes, so the nested wire documents reach the
// graphio decoders exactly as a client receives them.
func decodeResponse(t *testing.T, r *http.Response, v any) map[string]json.RawMessage {
	t.Helper()
	body, err := io.ReadAll(r.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(body, v); err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(body, &raw); err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestValidateEndpointSmoke drives the full HTTP path: plan + Monte-Carlo
// validation with repair, then a warm repeat that must be a cache hit.
func TestValidateEndpointSmoke(t *testing.T) {
	svc := mlbs.NewService(mlbs.ServiceConfig{Workers: 2})
	defer svc.Close()
	ts := httptest.NewServer(newMux(svc, newServeObs(0, 0)))
	defer ts.Close()

	body := `{"n":80,"seed":3,"loss_rate":0.1,"loss_seed":1,"trials":100,"target":0.98}`
	resp, err := http.Post(ts.URL+"/v1/validate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out validateHTTPResponse
	raw := decodeResponse(t, resp, &out)
	if len(out.Digest) != 64 || out.CacheHit {
		t.Fatalf("cold response: %+v", out)
	}
	rep, err := mlbs.DecodeReliabilityReport(raw["report"])
	if err != nil {
		t.Fatal(err)
	}
	if rep.Trials != 100 || len(rep.NodeCovered) != 80 {
		t.Fatalf("report: %+v", rep)
	}
	if out.Repair == nil {
		t.Fatal("no repair section despite target")
	}
	if out.Repair.RepairedLatency < out.Repair.BaseLatency {
		t.Fatalf("repair: %+v", out.Repair)
	}
	var repair map[string]json.RawMessage
	if err := json.Unmarshal(raw["repair"], &repair); err != nil {
		t.Fatal(err)
	}
	if _, err := mlbs.DecodeSchedule(repair["schedule"]); err != nil {
		t.Fatalf("repaired schedule does not decode: %v", err)
	}

	// Warm repeat: same parameters must hit the reliability cache.
	resp2, err := http.Post(ts.URL+"/v1/validate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var out2 validateHTTPResponse
	raw2 := decodeResponse(t, resp2, &out2)
	if !out2.CacheHit {
		t.Fatal("warm validation was not a cache hit")
	}
	if string(raw2["report"]) != string(raw["report"]) {
		t.Fatal("warm report differs from cold report")
	}

	// Bad requests surface as 400s, not 500s.
	for _, bad := range []string{`{"n":80,"seed":3,"loss_rate":2}`, `{not json`} {
		r, err := http.Post(ts.URL+"/v1/validate", "application/json", strings.NewReader(bad))
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad request %q → status %d", bad, r.StatusCode)
		}
	}

	// Metrics expose the validation counters.
	mr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mr.Body.Close()
	metrics, err := io.ReadAll(mr.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(metrics), "mlbs_validate_requests_total 2") {
		t.Fatalf("validate counters missing from /metrics:\n%s", metrics)
	}
}

// TestReplanEndpointSmoke drives the full churn HTTP path: generator-form
// base, a two-event delta, then a warm repeat that must be a cache hit.
func TestReplanEndpointSmoke(t *testing.T) {
	svc := mlbs.NewService(mlbs.ServiceConfig{Workers: 2})
	defer svc.Close()
	ts := httptest.NewServer(newMux(svc, newServeObs(0, 0)))
	defer ts.Close()

	body := `{"n":80,"seed":3,"delta":{"version":1,"events":[
		{"kind":"jitter","node":5,"x":0.2,"y":-0.1},
		{"kind":"join","x":25,"y":25}]}}`
	resp, err := http.Post(ts.URL+"/v1/replan", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out replanHTTPResponse
	raw := decodeResponse(t, resp, &out)
	if len(out.BaseDigest) != 64 || len(out.Digest) != 64 || out.BaseDigest == out.Digest {
		t.Fatalf("digests: %+v", out)
	}
	if out.CacheHit || out.Coalesced {
		t.Fatalf("cold replan flagged as hit: %+v", out)
	}
	if out.Strategy == "" || out.BaseAdvances == 0 {
		t.Fatalf("classification missing: %+v", out)
	}
	res, err := mlbs.DecodeResult(raw["result"])
	if err != nil {
		t.Fatal(err)
	}
	if res.Schedule == nil || len(res.Schedule.Advances) == 0 {
		t.Fatalf("repaired result has no schedule: %+v", res)
	}

	// Warm repeat: same (base, delta) must hit the replan cache.
	resp2, err := http.Post(ts.URL+"/v1/replan", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var out2 replanHTTPResponse
	raw2 := decodeResponse(t, resp2, &out2)
	if !out2.CacheHit {
		t.Fatal("warm replan was not a cache hit")
	}
	if string(raw2["result"]) != string(raw["result"]) {
		t.Fatal("warm replan result differs from cold")
	}

	// A Plan request for the mutated digest's topology is served from the
	// plan cache — verify through the metrics endpoint that replan counters
	// are exposed at all.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var sb strings.Builder
	if _, err := io.Copy(&sb, mresp.Body); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"mlbs_replan_requests_total 2", "mlbs_replan_cache_hits_total 1"} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("metrics missing %q:\n%s", want, sb.String())
		}
	}

	// Bad requests surface as 400s with the bad_request envelope code.
	for _, bad := range []string{
		`{"n":80,"seed":3}`, // no delta
		`{"n":80,"seed":3,"delta":{"version":1,"events":[{"kind":"warp"}]}}`,
		`{not json`,
	} {
		r, err := http.Post(ts.URL+"/v1/replan", "application/json", strings.NewReader(bad))
		if err != nil {
			t.Fatal(err)
		}
		var eb errorBody
		decodeErr := json.NewDecoder(r.Body).Decode(&eb)
		r.Body.Close()
		if decodeErr != nil {
			t.Fatalf("bad request %q: error body does not decode: %v", bad, decodeErr)
		}
		if r.StatusCode != http.StatusBadRequest || eb.Error.Code != "bad_request" {
			t.Fatalf("bad request %q got status %d code %q", bad, r.StatusCode, eb.Error.Code)
		}
	}
}

// TestAggregateEndpointSmoke drives the convergecast HTTP path on a
// duty-cycled multi-channel deployment: cold schedule, warm cache hit,
// decodable nested result, counters in /metrics, and the error envelope
// on a malformed body.
func TestAggregateEndpointSmoke(t *testing.T) {
	svc := mlbs.NewService(mlbs.ServiceConfig{Workers: 2})
	defer svc.Close()
	ts := httptest.NewServer(newMux(svc, newServeObs(0, 0)))
	defer ts.Close()

	body := `{"n":80,"seed":3,"r":10,"channels":4}`
	resp, err := http.Post(ts.URL+"/v1/aggregate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out aggregateHTTPResponse
	raw := decodeResponse(t, resp, &out)
	if len(out.Digest) != 64 || out.CacheHit || out.Scheduler != "agg-spt" {
		t.Fatalf("cold response: %+v", out)
	}
	if out.LatencySlots <= 0 {
		t.Fatalf("latency_slots %d", out.LatencySlots)
	}
	res, err := mlbs.DecodeAggResult(raw["result"])
	if err != nil {
		t.Fatal(err)
	}
	if res.LatencySlots != out.LatencySlots || len(res.Schedule.Advances) == 0 {
		t.Fatalf("nested result disagrees with top level: %+v vs %+v", res, out)
	}

	// Warm repeat: same parameters must hit the convergecast cache.
	resp2, err := http.Post(ts.URL+"/v1/aggregate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var out2 aggregateHTTPResponse
	raw2 := decodeResponse(t, resp2, &out2)
	if !out2.CacheHit {
		t.Fatal("warm aggregation was not a cache hit")
	}
	if string(raw2["result"]) != string(raw["result"]) {
		t.Fatal("warm result differs from cold")
	}

	// The bounded tree is a distinct cache entry, still cold.
	resp3, err := http.Post(ts.URL+"/v1/aggregate", "application/json",
		strings.NewReader(`{"n":80,"seed":3,"r":10,"channels":4,"scheduler":"agg-bounded"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	var out3 aggregateHTTPResponse
	if err := json.NewDecoder(resp3.Body).Decode(&out3); err != nil {
		t.Fatal(err)
	}
	if out3.CacheHit || out3.Scheduler != "agg-bounded" {
		t.Fatalf("bounded response: %+v", out3)
	}

	// Metrics expose the aggregation counters and the endpoint histogram.
	mr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mr.Body.Close()
	mb, err := io.ReadAll(mr.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"mlbs_aggregate_requests_total 3",
		"mlbs_aggregate_searches_total 2",
		"mlbs_aggregate_cache_hits_total 1",
		"mlbs_aggregate_cache_entries 2",
		`mlbs_http_request_duration_seconds_bucket{endpoint="/v1/aggregate",le="+Inf"} 3`,
	} {
		if !strings.Contains(string(mb), want) {
			t.Fatalf("metrics missing %q:\n%s", want, mb)
		}
	}

	// Bad requests carry the envelope with a stable code.
	for _, bad := range []string{`{not json`, `{"n":0}`, `{"n":80,"seed":3,"scheduler":"gopt"}`} {
		r, err := http.Post(ts.URL+"/v1/aggregate", "application/json", strings.NewReader(bad))
		if err != nil {
			t.Fatal(err)
		}
		var eb errorBody
		decodeErr := json.NewDecoder(r.Body).Decode(&eb)
		r.Body.Close()
		if decodeErr != nil {
			t.Fatalf("bad request %q: error body does not decode: %v", bad, decodeErr)
		}
		if r.StatusCode != http.StatusBadRequest || eb.Error.Code != "bad_request" {
			t.Fatalf("bad request %q got status %d code %q", bad, r.StatusCode, eb.Error.Code)
		}
	}
}

// TestErrorEnvelopeTypedCodes pins the typed error classification: a churn
// delta that kills the source is a 422 with its own code, and a closed
// service answers 503 unavailable — regardless of the status the handler
// suggested.
func TestErrorEnvelopeTypedCodes(t *testing.T) {
	svc := mlbs.NewService(mlbs.ServiceConfig{Workers: 1})
	ts := httptest.NewServer(newMux(svc, newServeObs(0, 0)))
	defer ts.Close()

	dep, err := mlbs.PaperDeployment(40, 1)
	if err != nil {
		t.Fatal(err)
	}
	body := fmt.Sprintf(`{"n":40,"seed":1,"delta":{"version":1,"events":[{"kind":"fail","node":%d}]}}`, dep.Source)
	r, err := http.Post(ts.URL+"/v1/replan", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var eb errorBody
	decodeErr := json.NewDecoder(r.Body).Decode(&eb)
	r.Body.Close()
	if decodeErr != nil {
		t.Fatal(decodeErr)
	}
	if r.StatusCode != http.StatusUnprocessableEntity || eb.Error.Code != "source_failed" {
		t.Fatalf("source-fail delta got status %d code %q", r.StatusCode, eb.Error.Code)
	}

	svc.Close()
	r2, err := http.Post(ts.URL+"/v1/aggregate", "application/json", strings.NewReader(`{"n":40,"seed":1}`))
	if err != nil {
		t.Fatal(err)
	}
	var eb2 errorBody
	decodeErr = json.NewDecoder(r2.Body).Decode(&eb2)
	r2.Body.Close()
	if decodeErr != nil {
		t.Fatal(decodeErr)
	}
	if r2.StatusCode != http.StatusServiceUnavailable || eb2.Error.Code != "unavailable" {
		t.Fatalf("closed service got status %d code %q", r2.StatusCode, eb2.Error.Code)
	}
}

// TestSweepEndpoint pins /v1/sweep's two halves: a request-level mistake
// (no sizes, an unknown scheduler) is a 400 in the shared error envelope
// before anything streams, a good sweep streams one NDJSON line per cell,
// and both run under the trace middleware, so /metrics carries the
// endpoint's latency series.
func TestSweepEndpoint(t *testing.T) {
	svc := mlbs.NewService(mlbs.ServiceConfig{Workers: 2})
	defer svc.Close()
	ts := httptest.NewServer(newMux(svc, newServeObs(0, 0)))
	defer ts.Close()

	for _, bad := range []string{`{}`, `{"sizes":[60],"scheduler":"nosuch"}`} {
		r, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(bad))
		if err != nil {
			t.Fatal(err)
		}
		var eb errorBody
		decodeErr := json.NewDecoder(r.Body).Decode(&eb)
		r.Body.Close()
		if decodeErr != nil {
			t.Fatalf("sweep %s: error body does not decode: %v", bad, decodeErr)
		}
		if r.StatusCode != http.StatusBadRequest || eb.Error.Code != "bad_request" ||
			r.Header.Get("Content-Type") != "application/json" {
			t.Fatalf("sweep %s: status %d code %q type %q", bad, r.StatusCode, eb.Error.Code, r.Header.Get("Content-Type"))
		}
	}

	r, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(`{"sizes":[60],"seeds":[1,2]}`))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(r.Body)
	r.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if r.StatusCode != http.StatusOK || r.Header.Get("Content-Type") != "application/x-ndjson" {
		t.Fatalf("sweep: status %d type %q", r.StatusCode, r.Header.Get("Content-Type"))
	}
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	if len(lines) != 2 {
		t.Fatalf("sweep streamed %d lines, want 2:\n%s", len(lines), body)
	}
	for _, line := range lines {
		var it mlbs.SweepItem
		if err := json.Unmarshal([]byte(line), &it); err != nil || it.Err != "" || len(it.Digest) != 64 {
			t.Fatalf("sweep item %s: %+v %v", line, it, err)
		}
	}

	mr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, err := io.ReadAll(mr.Body)
	mr.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if want := `mlbs_http_request_duration_seconds_bucket{endpoint="/v1/sweep",le="+Inf"} 3`; !strings.Contains(string(mb), want) {
		t.Fatalf("metrics missing %q:\n%s", want, mb)
	}
}

// TestHTTPErrorInternal pins the adapter's split of blame: a failure
// marked internalError (projecting or replaying a result the service
// returned) is a 500 "internal", while an unmarked one keeps the status
// the adapter suggests.
func TestHTTPErrorInternal(t *testing.T) {
	for _, c := range []struct {
		err    error
		status int
		code   string
	}{
		{internalError{fmt.Errorf("replay: boom")}, http.StatusInternalServerError, "internal"},
		{fmt.Errorf("service: bad"), http.StatusBadRequest, "bad_request"},
	} {
		rec := httptest.NewRecorder()
		httpError(rec, http.StatusBadRequest, c.err)
		var eb errorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil {
			t.Fatal(err)
		}
		if rec.Code != c.status || eb.Error.Code != c.code || eb.Error.Message != c.err.Error() {
			t.Errorf("%v: status %d code %q message %q", c.err, rec.Code, eb.Error.Code, eb.Error.Message)
		}
	}
}
