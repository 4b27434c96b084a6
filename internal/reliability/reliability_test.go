package reliability

import (
	"reflect"
	"testing"

	"mlbs/internal/core"
	"mlbs/internal/dutycycle"
	"mlbs/internal/topology"
)

func paperInstance(t testing.TB, n int, seed uint64) (core.Instance, *core.Schedule) {
	t.Helper()
	d, err := topology.Generate(topology.PaperConfig(n), seed)
	if err != nil {
		t.Fatal(err)
	}
	in := core.Sync(d.G, d.Source)
	res, err := core.NewEModel().Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	return in, res.Schedule
}

func TestEstimateNoLossIsPerfect(t *testing.T) {
	in, sched := paperInstance(t, 100, 3)
	rep, err := Estimate(in, sched, LossModel{Rate: 0}, Config{Trials: 50})
	if err != nil {
		t.Fatal(err)
	}
	if rep.MeanDeliveryRatio != 1 || rep.FullCoverageRate != 1 || rep.DeliveredTrials != 50 {
		t.Fatalf("lossless estimate not perfect: %+v", rep)
	}
	for v, k := range rep.NodeCovered {
		if k != 50 {
			t.Fatalf("node %d covered in %d/50 lossless trials", v, k)
		}
	}
	if rep.Latency.P50 != sched.Latency() || rep.Latency.Max != sched.Latency() {
		t.Fatalf("lossless latency quantiles %+v, schedule latency %d", rep.Latency, sched.Latency())
	}
	if rep.MeanLostFrames != 0 {
		t.Fatalf("lost frames on a lossless channel: %v", rep.MeanLostFrames)
	}
}

func TestEstimateLossDegradesDelivery(t *testing.T) {
	in, sched := paperInstance(t, 150, 5)
	rep, err := Estimate(in, sched, LossModel{Rate: 0.1, Seed: 1}, Config{Trials: 300})
	if err != nil {
		t.Fatal(err)
	}
	if rep.MeanDeliveryRatio >= 1 || rep.MeanDeliveryRatio <= 0 {
		t.Fatalf("delivery ratio %v not in (0,1) at 10%% loss", rep.MeanDeliveryRatio)
	}
	if rep.MeanLostFrames <= 0 {
		t.Fatal("no frames lost at 10% loss")
	}
	// The source holds the message by definition.
	if rep.NodeCovered[in.Source] != rep.Trials {
		t.Fatalf("source covered in %d/%d trials", rep.NodeCovered[in.Source], rep.Trials)
	}
	// Wilson bounds bracket the rate and are ordered.
	if !(rep.FullCoverageLo <= rep.FullCoverageRate && rep.FullCoverageRate <= rep.FullCoverageHi) {
		t.Fatalf("Wilson interval (%v, %v) does not bracket %v",
			rep.FullCoverageLo, rep.FullCoverageHi, rep.FullCoverageRate)
	}
	// Deeper loss must not improve delivery.
	worse, err := Estimate(in, sched, LossModel{Rate: 0.3, Seed: 1}, Config{Trials: 300})
	if err != nil {
		t.Fatal(err)
	}
	if worse.MeanDeliveryRatio > rep.MeanDeliveryRatio {
		t.Fatalf("delivery improved with loss: %v at 30%% vs %v at 10%%",
			worse.MeanDeliveryRatio, rep.MeanDeliveryRatio)
	}
}

// TestEstimateDeterministicAcrossWorkers pins the aggregation design:
// trial seeds derive from the trial index alone and observations land in
// trial-indexed arrays, so the report is bit-identical however the batch
// is partitioned — the property that makes reports cacheable by content
// address.
func TestEstimateDeterministicAcrossWorkers(t *testing.T) {
	in, sched := paperInstance(t, 120, 7)
	model := LossModel{Rate: 0.08, Seed: 42}
	var reports []*Report
	for _, workers := range []int{1, 2, 7} {
		rep, err := Estimate(in, sched, model, Config{Trials: 200, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		reports = append(reports, rep)
	}
	for i := 1; i < len(reports); i++ {
		if !reflect.DeepEqual(reports[0], reports[i]) {
			t.Fatalf("workers=%d report diverged:\n%+v\nvs\n%+v", []int{1, 2, 7}[i], reports[i], reports[0])
		}
	}
	// And a reused estimator agrees with one-shots.
	e := NewEstimator()
	for i := 0; i < 2; i++ {
		rep, err := e.Estimate(in, sched, model, Config{Trials: 200, Workers: 3})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rep, reports[0]) {
			t.Fatalf("reused estimator run %d diverged", i)
		}
	}
}

func TestEstimateDutyCycle(t *testing.T) {
	d, err := topology.Generate(topology.PaperConfig(100), 2)
	if err != nil {
		t.Fatal(err)
	}
	wake := dutycycle.NewUniform(100, 10, 9, 0)
	in := core.Async(d.G, d.Source, wake, 0)
	res, err := core.NewEModel().Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Estimate(in, res.Schedule, LossModel{Rate: 0.05, Seed: 3}, Config{Trials: 100})
	if err != nil {
		t.Fatal(err)
	}
	if rep.MeanDeliveryRatio <= 0.3 {
		t.Fatalf("duty-cycle delivery ratio %v suspiciously low", rep.MeanDeliveryRatio)
	}
	if rep.ScheduleLatency != res.Schedule.Latency() {
		t.Fatalf("schedule latency %d, want %d", rep.ScheduleLatency, res.Schedule.Latency())
	}
}

func TestEstimateRejectsBadInputs(t *testing.T) {
	in, sched := paperInstance(t, 40, 1)
	if _, err := Estimate(in, sched, LossModel{Rate: 1.5}, Config{Trials: 10}); err == nil {
		t.Fatal("rate 1.5 accepted")
	}
	if _, err := Estimate(in, sched, LossModel{Kind: "burst"}, Config{Trials: 10}); err == nil {
		t.Fatal("unknown kind accepted")
	}
	if _, err := Estimate(in, nil, LossModel{}, Config{Trials: 10}); err == nil {
		t.Fatal("nil schedule accepted")
	}
}

// TestEstimateBatchAllocs pins the acceptance criterion: a Monte-Carlo
// batch of 1000 lossy replays on the n=300 paper topology is
// allocation-stable — the warm per-replay cost is (amortized) zero, with
// only the per-batch report and validation BFS remaining.
func TestEstimateBatchAllocs(t *testing.T) {
	in, sched := paperInstance(t, 300, 2)
	model := LossModel{Rate: 0.05, Seed: 9}
	cfg := Config{Trials: 1000, Workers: 1}
	e := NewEstimator()
	if _, err := e.Estimate(in, sched, model, cfg); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(2, func() {
		if _, err := e.Estimate(in, sched, model, cfg); err != nil {
			t.Fatal(err)
		}
	})
	perReplay := allocs / float64(cfg.Trials)
	if perReplay > 0.05 {
		t.Errorf("warm Monte-Carlo batch allocated %.0f objects for %d replays (%.3f/replay); want ≤ 0.05/replay",
			allocs, cfg.Trials, perReplay)
	}
}

func BenchmarkEstimate300x1000(b *testing.B) {
	in, sched := paperInstance(b, 300, 2)
	model := LossModel{Rate: 0.05, Seed: 9}
	cfg := Config{Trials: 1000, Workers: 1}
	e := NewEstimator()
	if _, err := e.Estimate(in, sched, model, cfg); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Estimate(in, sched, model, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
