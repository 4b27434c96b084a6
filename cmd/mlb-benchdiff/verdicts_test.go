package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sort"
	"testing"
)

// verdictCase is one mutation of the checked-in baseline and the verdict
// the gate gave it. Metric empty drops the whole record; Metric set with a
// nil Value drops just that metric.
type verdictCase struct {
	Name    string      `json:"name"`
	Section string      `json:"section,omitempty"`
	Record  string      `json:"record,omitempty"`
	Metric  string      `json:"metric,omitempty"`
	Value   *float64    `json:"value,omitempty"`
	Fails   int         `json:"fails"`
	Failing [][2]string `json:"failing"`
}

// verdictCases enumerates the mutations of the baseline: for every pin and
// baseline record, values just inside and just outside the bound (both
// directions for exact pins, plus an improvement for upper bounds) and the
// metric dropped; every record dropped; and the baseline unchanged.
func verdictCases(t *testing.T, doc map[string]any) []verdictCase {
	t.Helper()
	cases := []verdictCase{{Name: "identical"}}
	val := func(v float64) *float64 { return &v }
	seen := map[string]bool{}
	for _, p := range pins {
		recs, _ := doc[p.section].([]any)
		if len(recs) == 0 {
			t.Fatalf("baseline has no %s records", p.section)
		}
		for _, r := range recs {
			rec := r.(map[string]any)
			name := rec["name"].(string)
			base, ok := rec[p.metric].(float64)
			if !ok {
				t.Fatalf("baseline %s lacks %s", name, p.metric)
			}
			id := p.section + ":" + name
			if !seen[id] {
				seen[id] = true
				cases = append(cases, verdictCase{Name: id + "/dropped", Section: p.section, Record: name})
			}
			mut := func(kind string, v *float64) {
				cases = append(cases, verdictCase{Name: id + "/" + p.metric + "/" + kind,
					Section: p.section, Record: name, Metric: p.metric, Value: v})
			}
			if p.exact {
				mut("inside", val(base))
				mut("above", val(base+1))
				mut("below", val(base-1))
			} else {
				bound := base*(1+p.rel) + p.abs
				if base == math.Trunc(base) {
					mut("inside", val(math.Floor(bound)))
					mut("outside", val(math.Floor(bound)+1))
				} else {
					mut("inside", val(bound))
					mut("outside", val(math.Nextafter(bound, math.Inf(1))))
				}
				mut("better", val(math.Max(0, base-1)))
			}
			mut("missing", nil)
		}
	}
	return cases
}

// apply returns the baseline document with c's mutation, as JSON.
func apply(t *testing.T, raw []byte, c verdictCase) []byte {
	t.Helper()
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if c.Section != "" {
		recs := doc[c.Section].([]any)
		for i, r := range recs {
			rec := r.(map[string]any)
			if rec["name"] != c.Record {
				continue
			}
			switch {
			case c.Metric == "":
				doc[c.Section] = append(recs[:i:i], recs[i+1:]...)
			case c.Value == nil:
				delete(rec, c.Metric)
			default:
				rec[c.Metric] = *c.Value
			}
		}
	}
	out, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestVerdictGoldens replays testdata/verdicts.json, recorded with the
// per-section compare this table replaced: every case must draw the same
// (record, metric) failures, except that a dropped metric now fails
// instead of reading as 0. The cases are re-enumerated from the pin
// table, so a changed bound shows up as a changed case value.
func TestVerdictGoldens(t *testing.T) {
	raw, err := os.ReadFile("../../BENCH_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile("testdata/verdicts.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden []verdictCase
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatal(err)
	}
	cases := verdictCases(t, doc)
	if len(cases) != len(golden) {
		t.Fatalf("%d cases from the pin table, %d in the goldens", len(cases), len(golden))
	}
	baseline, err := decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range cases {
		g := golden[i]
		if c.Name != g.Name || !reflect.DeepEqual(c.Value, g.Value) {
			t.Fatalf("case %d is %s=%v, golden %s=%v", i, c.Name, c.Value, g.Name, g.Value)
		}
		want := g.Failing
		if c.Metric != "" && c.Value == nil {
			want = [][2]string{{c.Record, c.Metric}}
		}
		current, err := decode(apply(t, raw, c))
		if err != nil {
			t.Fatal(err)
		}
		got := [][2]string{}
		for _, f := range compare(baseline, current) {
			got = append(got, [2]string{f.record, f.metric})
		}
		sort.Slice(got, func(i, j int) bool {
			return got[i][0] < got[j][0] || got[i][0] == got[j][0] && got[i][1] < got[j][1]
		})
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: failing %v, want %v", c.Name, got, want)
		}
	}
}
