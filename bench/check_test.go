package main

import (
	"encoding/json"
	"strings"
	"testing"

	"mlbs/internal/core"
	"mlbs/internal/graphio"
	"mlbs/internal/sim"
)

// TestCheckBodyRejectsWrongOutputs builds a correct plan response locally
// and checks that the output checks accept it and reject each kind of wrong
// answer: another instance's digest, a schedule that leaves nodes
// uncovered, and a primed plan that missed the cache.
func TestCheckBodyRejectsWrongOutputs(t *testing.T) {
	r := request{kind: planGen, dep: deployment{N: 150, Seed: 5}, budget: searchBudget, warm: true}
	in, err := r.dep.instance()
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.NewGOPT(searchBudget).NewEngine().Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	d, err := graphio.InstanceDigest(in)
	if err != nil {
		t.Fatal(err)
	}
	body := func(digest string, hit bool, res *core.Result) []byte {
		enc, err := graphio.EncodeResult(res)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(map[string]any{"digest": digest, "cache_hit": hit, "result": json.RawMessage(enc)})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	m, rp := newMirror(nil), sim.NewReplayer()
	slots, err := checkBody(&r, body(d.String(), true, res), m, rp)
	if err != nil {
		t.Fatalf("correct response rejected: %v", err)
	}
	if slots != res.Schedule.Latency() {
		t.Errorf("slots %d, want %d", slots, res.Schedule.Latency())
	}

	short := *res
	short.Schedule = &core.Schedule{Source: res.Schedule.Source, Start: res.Schedule.Start,
		Advances: res.Schedule.Advances[:len(res.Schedule.Advances)-1]}
	for name, b := range map[string][]byte{
		"wrong digest":        body(strings.Repeat("0", len(d.String())), true, res),
		"incomplete schedule": body(d.String(), true, &short),
		"primed plan missed":  body(d.String(), false, res),
	} {
		if _, err := checkBody(&r, b, m, rp); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
