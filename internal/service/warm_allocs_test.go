package service

import (
	"context"
	"testing"

	"mlbs/internal/reliability"
)

// TestWarmWorkloadHitAllocs pins the warm generator hits of Validate and
// Aggregate at their allocation counts before the serving pipeline was
// unified (12 and 7; TestWarmGeneratorHitAllocs pins Plan): a warm hit
// touches no worker, so a shared entry path must not add allocations to
// it.
func TestWarmWorkloadHitAllocs(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close()
	ctx := context.Background()
	base := WorkloadRequest{Generator: &Generator{N: 100, Seed: 7}, Budget: 64}
	calls := []struct {
		name string
		max  float64
		call func() (bool, error)
	}{
		{"validate", 12, func() (bool, error) {
			r, err := svc.Validate(ctx, ValidateRequest{WorkloadRequest: base,
				Loss: reliability.LossModel{Rate: 0.1, Seed: 1}, Trials: 50})
			return r.CacheHit, err
		}},
		{"aggregate", 7, func() (bool, error) {
			r, err := svc.Aggregate(ctx, AggregateRequest{base})
			return r.CacheHit, err
		}},
	}
	for _, c := range calls {
		if _, err := c.call(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			hit, err := c.call()
			if err != nil || !hit {
				t.Fatalf("%s: warm call hit=%v err=%v", c.name, hit, err)
			}
		})
		t.Logf("%s: %.1f allocs", c.name, allocs)
		if allocs > c.max {
			t.Errorf("warm generator %s allocated %.1f objects per call; want ≤ %.0f", c.name, allocs, c.max)
		}
	}
}
