package service

import (
	"context"
	"testing"
)

// BenchmarkPlanColdSync is the in-process form of the cold-sync serving
// workload: every op plans a new sync paper deployment (n alternating
// 150/300, seed i+1) with G-OPT at budget 64 and NoCache, so the
// deployment is generated and the search runs on every request. Compare
// commits at a fixed op count (e.g. -benchtime=400x): op i is the same
// request on both sides.
func BenchmarkPlanColdSync(b *testing.B) { benchPlanCold(b, 0, 64, 150, 300) }

// BenchmarkPlanColdDuty is the cold-duty counterpart: the paper's r=10
// duty cycle, n alternating 80/100, the default search budget.
func BenchmarkPlanColdDuty(b *testing.B) { benchPlanCold(b, 10, 0, 80, 100) }

func benchPlanCold(b *testing.B, r, budget, nEven, nOdd int) {
	svc := New(Config{Workers: 1})
	defer svc.Close()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := &Generator{N: nEven, Seed: uint64(i) + 1, DutyRate: r}
		if i%2 == 1 {
			g.N = nOdd
		}
		if _, err := svc.Plan(ctx, WorkloadRequest{Generator: g, Budget: budget, NoCache: true}); err != nil {
			b.Fatal(err)
		}
	}
}
