package main

import (
	"strings"
	"testing"
)

func parse(t *testing.T, src string) report {
	t.Helper()
	rep, err := decode([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// set overwrites one metric of the i-th record of a section, as the
// float64 a decoded report holds.
func set(r report, section string, i int, metric string, v float64) {
	r[section][i][metric] = v
}

const baselineJSON = `{
  "records": [
    {"name": "sync/g-opt", "latency_slots": 8, "allocs_per_op": 700},
    {"name": "duty-r10/g-opt", "latency_slots": 60, "allocs_per_op": 9000}
  ],
  "reliability": [
    {"name": "reliability/sync-n150", "allocs_per_replay": 0.1}
  ],
  "channels": [
    {"name": "channels/duty-r50-n300/k1", "latency_slots": 50},
    {"name": "channels/duty-r50-n300/k4", "latency_slots": 35}
  ],
  "agg": [
    {"name": "agg/sync-n300/k1", "latency_slots": 120},
    {"name": "agg/duty-r10-n300/k4", "latency_slots": 90}
  ],
  "improve": [
    {"name": "improve/duty-r10-n150/moves8", "latency_slots": 40},
    {"name": "improve/duty-r10-n150/moves64", "latency_slots": 20}
  ],
  "obs": [
    {"name": "obs/cold-plan-n150", "overhead_pct": 1.5, "spans": 5}
  ]
}`

func TestCompareIdenticalPasses(t *testing.T) {
	b := parse(t, baselineJSON)
	if fails := compare(b, b); len(fails) != 0 {
		t.Fatalf("identical reports flagged: %v", fails)
	}
}

func TestCompareWithinTolerancePasses(t *testing.T) {
	b := parse(t, baselineJSON)
	cur := parse(t, baselineJSON)
	set(cur, "records", 0, "latency_slots", 10)    // 8 → 10 = exactly +25%
	set(cur, "records", 1, "allocs_per_op", 11000) // within 25% + slack
	set(cur, "reliability", 0, "allocs_per_replay", 0.9)
	if fails := compare(b, cur); len(fails) != 0 {
		t.Fatalf("within-tolerance report flagged: %v", fails)
	}
}

func TestCompareLatencyRegressionFails(t *testing.T) {
	b := parse(t, baselineJSON)
	cur := parse(t, baselineJSON)
	set(cur, "records", 0, "latency_slots", 11) // 8 → 11 > +25%
	fails := compare(b, cur)
	if len(fails) != 1 || !strings.Contains(fails[0].msg, "sync/g-opt") {
		t.Fatalf("fails = %v", fails)
	}
}

func TestCompareAllocRegressionFails(t *testing.T) {
	b := parse(t, baselineJSON)
	cur := parse(t, baselineJSON)
	set(cur, "records", 1, "allocs_per_op", 12000) // > 9000*1.25+200
	fails := compare(b, cur)
	if len(fails) != 1 || !strings.Contains(fails[0].msg, "allocs_per_op") {
		t.Fatalf("fails = %v", fails)
	}
}

func TestCompareAllocSlackAbsorbsSmallCounts(t *testing.T) {
	b := parse(t, `{"records":[{"name":"x","latency_slots":5,"allocs_per_op":3}]}`)
	cur := parse(t, `{"records":[{"name":"x","latency_slots":5,"allocs_per_op":150}]}`)
	if fails := compare(b, cur); len(fails) != 0 {
		t.Fatalf("slack did not absorb a tiny absolute jump: %v", fails)
	}
}

func TestCompareChannelRegressionFails(t *testing.T) {
	b := parse(t, baselineJSON)
	cur := parse(t, baselineJSON)
	set(cur, "channels", 1, "latency_slots", 50) // the K=4 win evaporated
	fails := compare(b, cur)
	if len(fails) != 1 || !strings.Contains(fails[0].msg, "k4") {
		t.Fatalf("fails = %v", fails)
	}
}

func TestCompareAggDriftFails(t *testing.T) {
	b := parse(t, baselineJSON)
	cur := parse(t, baselineJSON)
	// Convergecast latencies gate with ZERO slack in BOTH directions: a
	// drifted deterministic schedule is a behaviour change even when it
	// happens to be shorter.
	set(cur, "agg", 1, "latency_slots", 89)
	fails := compare(b, cur)
	if len(fails) != 1 || !strings.Contains(fails[0].msg, "agg/duty-r10-n300/k4") {
		t.Fatalf("fails = %v", fails)
	}
}

func TestCompareAggMissingFails(t *testing.T) {
	b := parse(t, baselineJSON)
	cur := parse(t, baselineJSON)
	delete(cur, "agg")
	fails := compare(b, cur)
	if len(fails) != 2 {
		t.Fatalf("want 2 missing agg records, got %v", fails)
	}
}

func TestCompareMissingRecordFails(t *testing.T) {
	b := parse(t, baselineJSON)
	cur := parse(t, baselineJSON)
	cur["records"] = cur["records"][:1]
	delete(cur, "channels")
	fails := compare(b, cur)
	if len(fails) != 3 {
		t.Fatalf("want 3 missing-record failures, got %v", fails)
	}
	for _, f := range fails {
		if !strings.Contains(f.msg, "missing") {
			t.Fatalf("unexpected failure: %s", f.msg)
		}
	}
}

func TestCompareReliabilityAllocFails(t *testing.T) {
	b := parse(t, baselineJSON)
	cur := parse(t, baselineJSON)
	set(cur, "reliability", 0, "allocs_per_replay", 5)
	fails := compare(b, cur)
	if len(fails) != 1 || !strings.Contains(fails[0].msg, "allocs_per_replay") {
		t.Fatalf("fails = %v", fails)
	}
}

func TestCompareExtraCurrentRecordsIgnored(t *testing.T) {
	b := parse(t, `{"records":[{"name":"x","latency_slots":5,"allocs_per_op":10}]}`)
	cur := parse(t, baselineJSON)
	cur["records"] = append(cur["records"], map[string]any{"name": "x", "latency_slots": 5.0, "allocs_per_op": 10.0})
	if fails := compare(b, cur); len(fails) != 0 {
		t.Fatalf("extra records should not fail the gate: %v", fails)
	}
}

func TestCompareImproveRegressionFails(t *testing.T) {
	b := parse(t, baselineJSON)
	cur := parse(t, baselineJSON)
	// Improve records gate with ZERO slack: even one extra slot — well
	// inside the 25% relative tolerance — is a quality regression.
	set(cur, "improve", 1, "latency_slots", 21)
	fails := compare(b, cur)
	if len(fails) != 1 || !strings.Contains(fails[0].msg, "moves64") {
		t.Fatalf("fails = %v", fails)
	}
}

func TestCompareImproveMissingFails(t *testing.T) {
	b := parse(t, baselineJSON)
	cur := parse(t, baselineJSON)
	delete(cur, "improve")
	fails := compare(b, cur)
	if len(fails) != 2 {
		t.Fatalf("want 2 missing improve records, got %v", fails)
	}
}

func TestCompareObsSpanDriftFails(t *testing.T) {
	b := parse(t, baselineJSON)
	cur := parse(t, baselineJSON)
	// The span tree is deterministic: even one FEWER span must fail — a
	// silently vanished phase is an observability regression.
	set(cur, "obs", 0, "spans", 4)
	fails := compare(b, cur)
	if len(fails) != 1 || !strings.Contains(fails[0].msg, "spans") {
		t.Fatalf("fails = %v", fails)
	}
}

func TestCompareObsOverheadGate(t *testing.T) {
	b := parse(t, baselineJSON)
	cur := parse(t, baselineJSON)
	set(cur, "obs", 0, "overhead_pct", 11.0) // within baseline 1.5 + 10-point slack
	if fails := compare(b, cur); len(fails) != 0 {
		t.Fatalf("within-slack overhead flagged: %v", fails)
	}
	set(cur, "obs", 0, "overhead_pct", 12.0) // beyond the slack
	fails := compare(b, cur)
	if len(fails) != 1 || !strings.Contains(fails[0].msg, "overhead") {
		t.Fatalf("fails = %v", fails)
	}
}

func TestCompareObsMissingFails(t *testing.T) {
	b := parse(t, baselineJSON)
	cur := parse(t, baselineJSON)
	delete(cur, "obs")
	fails := compare(b, cur)
	if len(fails) != 1 || !strings.Contains(fails[0].msg, "obs record") {
		t.Fatalf("fails = %v", fails)
	}
}

func TestCompareImproveBetterPasses(t *testing.T) {
	b := parse(t, baselineJSON)
	cur := parse(t, baselineJSON)
	set(cur, "improve", 0, "latency_slots", 18) // improver got better — never a failure
	if fails := compare(b, cur); len(fails) != 0 {
		t.Fatalf("improvement flagged: %v", fails)
	}
}

func TestCompareMissingMetricFails(t *testing.T) {
	b := parse(t, baselineJSON)
	cur := parse(t, baselineJSON)
	// An absent metric must not read as 0 and slip under an upper bound.
	delete(cur["records"][0], "latency_slots")
	fails := compare(b, cur)
	if len(fails) != 1 || fails[0].record != "sync/g-opt" || fails[0].metric != "latency_slots" {
		t.Fatalf("fails = %v", fails)
	}
}
