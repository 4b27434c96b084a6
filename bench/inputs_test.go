package main

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"mlbs/internal/churn"
)

// requestBytes renders the first n requests of every stream of a
// workload's inputs, set-up included, as one byte string.
func requestBytes(t *testing.T, w *workload, seed uint64, n int) []byte {
	t.Helper()
	in, err := buildInputs(w, seed, 3*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	write := func(r request) { fmt.Fprintf(&b, "%s %d %s\n", r.path(), r.due, r.body) }
	for _, r := range in.prime {
		write(r)
	}
	for _, s := range []stream{in.warmup, in.window} {
		for i := 0; i < n; i++ {
			r, ok := s.get(i)
			if !ok {
				break
			}
			write(r)
		}
	}
	return b.Bytes()
}

func TestInputsDeterministicInSeed(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a, b := requestBytes(t, w, 7, 200), requestBytes(t, w, 7, 200)
			if !bytes.Equal(a, b) {
				t.Fatal("the same seed gave different request lists")
			}
			if bytes.Equal(a, requestBytes(t, w, 8, 200)) {
				t.Fatal("different seeds gave the same request lists")
			}
		})
	}
}

func TestMixedDeltasApplyCleanly(t *testing.T) {
	in, err := buildInputs(findWorkload("mixed-open"), 3, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	replans := 0
	for _, list := range [][]request{in.warmup.list, in.window.list} {
		for _, r := range list {
			if r.kind != replanReq {
				continue
			}
			replans++
			if n := len(r.delta.Events); n < 1 || n > 2 {
				t.Errorf("delta with %d events", n)
			}
			if _, _, err := churn.Apply(in.bases[r.dep], r.delta); err != nil {
				t.Errorf("delta does not apply: %v", err)
			}
		}
	}
	if replans == 0 {
		t.Fatal("no replan requests drawn")
	}
}

func TestMixedTrafficShares(t *testing.T) {
	total := 0.0
	for _, mx := range mixedTraffic {
		total += mx.share
	}
	if total < 0.999 || total > 1.001 {
		t.Fatalf("traffic shares sum to %v", total)
	}
}
