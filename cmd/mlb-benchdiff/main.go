// Command mlb-benchdiff is the CI bench regression gate: it compares a
// current mlb-bench report against a checked-in baseline and fails (exit
// code 1) when a pinned metric regresses past its pin.
//
// Usage:
//
//	mlb-benchdiff -baseline BENCH_baseline.json -current BENCH_ci.json
//
// The pins are the table below. Slot and span counts are deterministic for
// a fixed (n, seed, r) and allocation counts nearly so; obs.overhead_pct is
// the only wall-clock number compared, CI machines are too noisy for the
// rest. A rule is either exact or an upper bound cur ≤ base·(1+rel)+abs:
//
//	section      metric             rule
//	records      latency_slots      ≤ base·1.25      broadcast latency per (scheduler, system)
//	records      allocs_per_op      ≤ base·1.25+200  alloc discipline; slack absorbs tiny-count jitter
//	reliability  allocs_per_replay  ≤ base·1.25+1    Monte-Carlo engine's ~0 allocs/replay
//	channels     latency_slots      ≤ base·1.25      latency-vs-K curve
//	agg          latency_slots      exact            convergecast latency-vs-K, deterministic per K
//	models       latency_slots      exact            graph vs SINR: a drifted schedule IS the regression
//	improve      latency_slots      ≤ base           the improver getting worse at improving
//	obs          spans              exact            span tree of a traced cold plan
//	obs          overhead_pct       ≤ base+10        tracing tax; points of slack for shared runners
//
// A baseline record missing from the current report fails, and so does a
// pinned metric missing from a current record: silently dropping a
// benchmark is how regressions hide. Current records the baseline lacks
// are ignored.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

// pin gates one metric of every record in one report section.
type pin struct {
	section, metric string
	// exact pins require cur == base; the others cur ≤ base·(1+rel)+abs.
	exact    bool
	rel, abs float64
}

var pins = []pin{
	{section: "records", metric: "latency_slots", rel: 0.25},
	{section: "records", metric: "allocs_per_op", rel: 0.25, abs: 200},
	{section: "reliability", metric: "allocs_per_replay", rel: 0.25, abs: 1},
	{section: "channels", metric: "latency_slots", rel: 0.25},
	{section: "agg", metric: "latency_slots", exact: true},
	{section: "models", metric: "latency_slots", exact: true},
	{section: "improve", metric: "latency_slots"},
	{section: "obs", metric: "spans", exact: true},
	{section: "obs", metric: "overhead_pct", abs: 10},
}

// report is an mlb-bench report as the gate reads it: section → records,
// each record its JSON fields by name.
type report map[string][]map[string]any

// failure is one pin violation; metric is empty when the whole record is
// missing.
type failure struct {
	record, metric, msg string
}

// compare returns every pin violation, empty when the gate passes.
func compare(baseline, current report) []failure {
	var fails []failure
	missing := map[string]bool{} // section/record, reported once across its pins
	for _, p := range pins {
		byName := make(map[string]map[string]any, len(current[p.section]))
		for _, r := range current[p.section] {
			byName[name(r)] = r
		}
		for _, b := range baseline[p.section] {
			rec := name(b)
			cur, ok := byName[rec]
			if !ok {
				if key := p.section + "/" + rec; !missing[key] {
					missing[key] = true
					fails = append(fails, failure{rec, "", fmt.Sprintf("%s record %q missing from current report", p.section, rec)})
				}
				continue
			}
			if why := p.violation(b, cur); why != "" {
				fails = append(fails, failure{rec, p.metric, rec + ": " + p.metric + " " + why})
			}
		}
	}
	return fails
}

// violation says how cur breaks the pin, or returns "" when it holds.
func (p pin) violation(base, cur map[string]any) string {
	b, ok := base[p.metric].(float64)
	if !ok {
		return "missing from baseline"
	}
	c, ok := cur[p.metric].(float64)
	limit := b*(1+p.rel) + p.abs
	switch {
	case !ok:
		return "missing from current report"
	case p.exact && c != b:
		return fmt.Sprintf("%g, baseline %g (pinned exactly)", c, b)
	case !p.exact && c > limit:
		return fmt.Sprintf("%g, baseline %g (limit %g)", c, b, limit)
	}
	return ""
}

func name(r map[string]any) string {
	s, _ := r["name"].(string)
	return s
}

// decode reads the pinned sections of an mlb-bench report.
func decode(data []byte) (report, error) {
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		return nil, err
	}
	rep := report{}
	for _, p := range pins {
		if raw[p.section] == nil {
			continue
		}
		var recs []map[string]any
		if err := json.Unmarshal(raw[p.section], &recs); err != nil {
			return nil, fmt.Errorf("section %s: %w", p.section, err)
		}
		rep[p.section] = recs
	}
	return rep, nil
}

func main() {
	basePath := flag.String("baseline", "BENCH_baseline.json", "checked-in baseline report")
	curPath := flag.String("current", "BENCH_ci.json", "freshly generated report")
	flag.Parse()
	var reps [2]report
	for i, path := range []string{*basePath, *curPath} {
		data, err := os.ReadFile(path)
		if err == nil {
			reps[i], err = decode(data)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "mlb-benchdiff: %s: %v\n", path, err)
			os.Exit(2)
		}
	}
	baseline, current := reps[0], reps[1]
	if fails := compare(baseline, current); len(fails) > 0 {
		for _, f := range fails {
			fmt.Fprintln(os.Stderr, "REGRESSION:", f.msg)
		}
		os.Exit(1)
	}
	fmt.Print("mlb-benchdiff: every pin holds:")
	for _, p := range pins {
		fmt.Printf(" %s.%s×%d", p.section, p.metric, len(baseline[p.section]))
	}
	fmt.Println()
}
