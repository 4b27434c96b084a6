package reliability

import (
	"testing"

	"mlbs/internal/color"
	"mlbs/internal/core"
	"mlbs/internal/dutycycle"
	"mlbs/internal/topology"
)

// TestRepairLiftsDeliveryToTarget is the headline acceptance property: on
// a lossy instance whose base schedule misses the target, repair appends
// rebroadcast slots until the estimated mean delivery ratio clears it, and
// reports the latency penalty honestly.
func TestRepairLiftsDeliveryToTarget(t *testing.T) {
	in, sched := paperInstance(t, 150, 5)
	model := LossModel{Rate: 0.1, Seed: 1}
	cfg := RepairConfig{Target: 0.995, Trials: 300}
	rr, err := Repair(in, sched, model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Before.MeanDeliveryRatio >= cfg.Target {
		t.Fatalf("base schedule already meets the target (%v); test instance too easy", rr.Before.MeanDeliveryRatio)
	}
	if !rr.TargetMet {
		t.Fatalf("repair failed to reach %v: before %v, after %v (+%d slots, %d rounds)",
			cfg.Target, rr.Before.MeanDeliveryRatio, rr.After.MeanDeliveryRatio, rr.AddedSlots, rr.Rounds)
	}
	if rr.After.MeanDeliveryRatio < cfg.Target {
		t.Fatalf("TargetMet but after ratio %v < target", rr.After.MeanDeliveryRatio)
	}
	if rr.AddedAdvances <= 0 || rr.AddedSlots <= 0 {
		t.Fatalf("repair claims success without adding anything: %+v", rr)
	}
	if rr.RepairedLatency != rr.BaseLatency+rr.AddedSlots {
		t.Fatalf("latency accounting: repaired %d != base %d + added %d",
			rr.RepairedLatency, rr.BaseLatency, rr.AddedSlots)
	}
	if got := len(rr.Schedule.Advances) - len(sched.Advances); got != rr.AddedAdvances {
		t.Fatalf("schedule grew by %d advances, result claims %d", got, rr.AddedAdvances)
	}
}

// TestRepairAdvancesAreConflictAware verifies the structural guarantee:
// every appended advance is strictly after the base end, its senders are
// awake, pairwise conflict-free with respect to the miss set it was built
// against, and its recorded coverage is inside that miss set.
func TestRepairAdvancesAreConflictAware(t *testing.T) {
	in, sched := paperInstance(t, 150, 5)
	rr, err := Repair(in, sched, LossModel{Rate: 0.15, Seed: 2}, RepairConfig{Target: 0.99, Trials: 200})
	if err != nil {
		t.Fatal(err)
	}
	base := sched.End()
	prev := base
	for _, adv := range rr.Schedule.Advances[len(sched.Advances):] {
		if adv.T <= prev {
			t.Fatalf("appended advance at t=%d not after t=%d", adv.T, prev)
		}
		prev = adv.T
		if len(adv.Senders) == 0 {
			t.Fatal("appended advance with no senders")
		}
		for _, u := range adv.Senders {
			if !in.Wake.Awake(u, adv.T) {
				t.Fatalf("appended sender %d asleep at t=%d", u, adv.T)
			}
		}
		// Senders must not conflict at any node they are trying to rescue:
		// the uncovered set of the repair round contains the advance's own
		// recorded coverage, so conflict-freedom there is necessary.
		w := in.G.Nbr(0).Clone()
		for i := range w {
			w[i] = ^uint64(0)
		}
		for _, v := range adv.Covered {
			w.Remove(v)
		}
		if !color.ConflictFree(in.G, w, adv.Senders) {
			t.Fatalf("appended advance at t=%d collides inside its own target set", adv.T)
		}
	}
}

func TestRepairNoOpWhenTargetAlreadyMet(t *testing.T) {
	in, sched := paperInstance(t, 100, 3)
	rr, err := Repair(in, sched, LossModel{Rate: 0}, RepairConfig{Target: 0.99, Trials: 50})
	if err != nil {
		t.Fatal(err)
	}
	if !rr.TargetMet || rr.AddedAdvances != 0 || rr.AddedSlots != 0 || rr.Rounds != 0 {
		t.Fatalf("lossless repair should be a no-op: %+v", rr)
	}
	if rr.RepairedLatency != rr.BaseLatency {
		t.Fatal("no-op repair changed latency")
	}
}

func TestRepairRespectsSlotCap(t *testing.T) {
	in, sched := paperInstance(t, 150, 5)
	// A brutal channel with a tiny budget: the cap must bound the penalty
	// whether or not the target is reached.
	rr, err := Repair(in, sched, LossModel{Rate: 0.4, Seed: 7},
		RepairConfig{Target: 1.0, Trials: 100, MaxExtraSlots: 5, MaxRounds: 20})
	if err != nil {
		t.Fatal(err)
	}
	if rr.AddedSlots > 5 {
		t.Fatalf("repair added %d slots, cap was 5", rr.AddedSlots)
	}
	if rr.After.MeanDeliveryRatio < rr.Before.MeanDeliveryRatio {
		t.Fatalf("repair made delivery worse: %v → %v",
			rr.Before.MeanDeliveryRatio, rr.After.MeanDeliveryRatio)
	}
}

func TestRepairDutyCycleSendersAwake(t *testing.T) {
	d, err := topology.Generate(topology.PaperConfig(100), 2)
	if err != nil {
		t.Fatal(err)
	}
	wake := dutycycle.NewUniform(100, 8, 5, 0)
	in := core.Async(d.G, d.Source, wake, 0)
	res, err := core.NewEModel().Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := Repair(in, res.Schedule, LossModel{Rate: 0.1, Seed: 4},
		RepairConfig{Target: 0.99, Trials: 150, MaxExtraSlots: 200})
	if err != nil {
		t.Fatal(err)
	}
	for _, adv := range rr.Schedule.Advances[len(res.Schedule.Advances):] {
		for _, u := range adv.Senders {
			if !in.Wake.Awake(u, adv.T) {
				t.Fatalf("duty-cycle repair fired sleeping sender %d at t=%d", u, adv.T)
			}
		}
	}
	if rr.After.MeanDeliveryRatio < rr.Before.MeanDeliveryRatio {
		t.Fatal("duty-cycle repair made delivery worse")
	}
}

func TestRepairRejectsBadTarget(t *testing.T) {
	in, sched := paperInstance(t, 40, 1)
	for _, target := range []float64{0, -0.5, 1.5} {
		if _, err := Repair(in, sched, LossModel{Rate: 0.1}, RepairConfig{Target: target, Trials: 10}); err == nil {
			t.Fatalf("target %v accepted", target)
		}
	}
}
