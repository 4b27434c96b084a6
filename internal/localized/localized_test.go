package localized

import (
	"testing"
	"testing/quick"

	"mlbs/internal/core"
	"mlbs/internal/dutycycle"
	"mlbs/internal/paperfig"
	"mlbs/internal/topology"
)

func TestRunCompletesOnFigure1(t *testing.T) {
	g, src := paperfig.Figure1()
	in := core.Sync(g, src)
	rep, sched, err := Run(in)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Completed || len(rep.Collisions) != 0 {
		t.Fatalf("report = %+v", rep)
	}
	if err := sched.Validate(in); err != nil {
		t.Fatalf("as-executed schedule invalid: %v", err)
	}
	// d = 3 on Figure 1; a localized scheme may pay extra rounds but must
	// stay within a small constant of the optimum on this 12-node example.
	if rep.Latency() > 6 {
		t.Fatalf("localized latency %d unreasonably high (OPT = 3)", rep.Latency())
	}
}

func TestRunDeterministic(t *testing.T) {
	d, err := topology.Generate(topology.PaperConfig(80), 5)
	if err != nil {
		t.Fatal(err)
	}
	in := core.Sync(d.G, d.Source)
	a, sa, err := Run(in)
	if err != nil {
		t.Fatal(err)
	}
	b, sb, err := Run(in)
	if err != nil {
		t.Fatal(err)
	}
	if a.End != b.End || len(sa.Advances) != len(sb.Advances) {
		t.Fatal("localized run not deterministic")
	}
}

func TestRunRejectsDegenerateGeometry(t *testing.T) {
	g, src := paperfig.Figure2()
	in := core.Sync(g, src)
	if _, _, err := Run(in); err != nil {
		// Figure 2 has distinct positions; this must succeed.
		t.Fatalf("Figure 2 run: %v", err)
	}
}

func TestRunAsync(t *testing.T) {
	d, err := topology.Generate(topology.PaperConfig(60), 9)
	if err != nil {
		t.Fatal(err)
	}
	wake := dutycycle.NewUniform(d.G.N(), 10, 3, 0)
	in := core.Async(d.G, d.Source, wake, 0)
	rep, sched, err := Run(in)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Completed {
		t.Fatal("async localized run incomplete")
	}
	if err := sched.Validate(in); err != nil {
		t.Fatalf("async schedule invalid: %v", err)
	}
}

// Property: on random paper-style deployments the localized scheme always
// completes without collisions (the 2-hop rule guarantees conflict-freedom)
// and can transmit more than one relay per slot (parallelism actually
// happens).
func TestQuickLocalizedSound(t *testing.T) {
	sawParallel := false
	f := func(seed uint64) bool {
		cfg := topology.Config{N: 50, AreaSide: 35, Radius: 10, MaxRetries: 60}
		d, err := topology.Generate(cfg, seed)
		if err != nil {
			return true
		}
		in := core.Sync(d.G, d.Source)
		rep, sched, err := Run(in)
		if err != nil {
			return false
		}
		if !rep.Completed || len(rep.Collisions) != 0 {
			return false
		}
		for _, adv := range sched.Advances {
			if len(adv.Senders) > 1 {
				sawParallel = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
	if !sawParallel {
		t.Fatal("localized scheme never transmitted two relays in one slot across 20 deployments")
	}
}

// The localized scheme is online and local, so it may lose rounds to the
// centralized E-model — but it must not be catastrophically worse.
func TestLocalizedVsCentralized(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		d, err := topology.Generate(topology.PaperConfig(100), seed)
		if err != nil {
			t.Fatal(err)
		}
		in := core.Sync(d.G, d.Source)
		rep, _, err := Run(in)
		if err != nil {
			t.Fatal(err)
		}
		em, err := core.NewEModel().Schedule(in)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Latency() > 3*em.Schedule.Latency()+3 {
			t.Fatalf("seed %d: localized %d vs centralized %d — too far off",
				seed, rep.Latency(), em.Schedule.Latency())
		}
	}
}
