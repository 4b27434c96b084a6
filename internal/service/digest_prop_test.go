package service

import (
	"context"
	"math/rand/v2"
	"reflect"
	"testing"

	"mlbs/internal/graphio"
)

// TestDigestConsistencyProperty checks, over random generator parameters,
// that the digests the deployment cache stores are the ones graphio
// computes for the generator's instance, and the metamorphic property that
// a generator request and an explicit-instance request for the same
// topology share one digest and one plan-cache entry.
func TestDigestConsistencyProperty(t *testing.T) {
	svc := New(Config{Workers: 2})
	defer svc.Close()
	ctx := context.Background()
	rng := rand.New(rand.NewPCG(14, 2012))
	for trial := 0; trial < 24; trial++ {
		gen := Generator{
			N:        40 + rng.IntN(121),
			Seed:     rng.Uint64N(1 << 20),
			DutyRate: []int{0, 1, 5, 10}[rng.IntN(4)],
			Channels: []int{0, 1, 2, 4}[rng.IntN(4)],
		}
		if rng.IntN(2) == 1 {
			gen.SINRAlpha = []float64{2, 3, 4}[rng.IntN(3)]
			gen.SINRBeta = []float64{1, 2}[rng.IntN(2)]
		}
		in, err := gen.Instance()
		if err != nil {
			t.Fatalf("%+v: %v", gen, err)
		}
		want, err := graphio.InstanceDigest(in)
		if err != nil {
			t.Fatal(err)
		}
		wantAgg, err := graphio.AggInstanceDigest(in)
		if err != nil {
			t.Fatal(err)
		}

		r, err := svc.resolve(WorkloadRequest{Generator: &gen})
		if err != nil {
			t.Fatal(err)
		}
		if r.digest != want.String() || r.aggDigest != wantAgg.String() {
			t.Fatalf("%+v: cached digests (%s, %s), graphio computes (%s, %s)", gen, r.digest, r.aggDigest, want, wantAgg)
		}
		agg, err := svc.Aggregate(ctx, AggregateRequest{WorkloadRequest{Generator: &gen}})
		if err != nil {
			t.Fatal(err)
		}
		if agg.Digest != wantAgg.String() {
			t.Fatalf("%+v: aggregate digest %s, want %s", gen, agg.Digest, wantAgg)
		}

		byGen, err := svc.Plan(ctx, WorkloadRequest{Generator: &gen, Budget: 8})
		if err != nil {
			t.Fatal(err)
		}
		searches := svc.Metrics().Searches
		byInst, err := svc.Plan(ctx, WorkloadRequest{Instance: &in, Budget: 8})
		if err != nil {
			t.Fatal(err)
		}
		if byGen.Digest != want.String() || byInst.Digest != want.String() {
			t.Fatalf("%+v: plan digests %s (generator) and %s (instance), want %s", gen, byGen.Digest, byInst.Digest, want)
		}
		// Plans are materialized per read, so the two answers are equal
		// values rather than one shared pointer.
		if !byInst.CacheHit || !reflect.DeepEqual(byInst.Result, byGen.Result) || svc.Metrics().Searches != searches {
			t.Fatalf("%+v: explicit instance did not hit the generator's plan-cache entry (hit=%v)", gen, byInst.CacheHit)
		}
	}
}
