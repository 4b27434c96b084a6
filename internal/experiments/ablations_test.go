package experiments

import (
	"strings"
	"testing"
)

func ablationCfg() Config {
	return Config{Trials: 3, Seed: 5, NodeCounts: []int{60}}
}

func TestAblationSelection(t *testing.T) {
	a, err := AblationSelection(ablationCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Variants) != 4 {
		t.Fatalf("variants = %v", a.Variants)
	}
	for _, v := range a.Variants {
		s := a.Latency[v]
		if s == nil || s.N() != 3 {
			t.Fatalf("variant %q sample = %+v", v, s)
		}
		if s.Mean() <= 0 {
			t.Fatalf("variant %q mean latency %f", v, s.Mean())
		}
	}
	out := a.Format()
	if !strings.Contains(out, "max-E") || !strings.Contains(out, "latency") {
		t.Fatalf("format:\n%s", out)
	}
}

func TestAblationBudget(t *testing.T) {
	a, err := AblationBudget(ablationCfg(), []int{5, 50_000})
	if err != nil {
		t.Fatal(err)
	}
	small, big := a.Variants[0], a.Variants[1]
	// More budget never hurts latency and never lowers the proof rate.
	if a.Latency[big].Mean() > a.Latency[small].Mean()+1e-9 {
		t.Fatalf("bigger budget worsened latency: %f vs %f",
			a.Latency[big].Mean(), a.Latency[small].Mean())
	}
	if a.Extra["exact-rate"][big].Mean() < a.Extra["exact-rate"][small].Mean()-1e-9 {
		t.Fatalf("bigger budget lowered exact rate")
	}
	if a.Extra["states"][big].Mean() < a.Extra["states"][small].Mean() {
		t.Fatalf("bigger budget expanded fewer states")
	}
}

func TestAblationRobustness(t *testing.T) {
	a, err := AblationRobustness(ablationCfg(), []float64{0, 0.3})
	if err != nil {
		t.Fatal(err)
	}
	clean, harsh := a.Variants[0], a.Variants[1]
	// The offline plan covers everything on a clean channel and loses
	// coverage under loss.
	if got := a.Extra["plan-coverage"][clean].Mean(); got != 1 {
		t.Fatalf("plan coverage on clean channel = %f, want 1", got)
	}
	if got := a.Extra["plan-coverage"][harsh].Mean(); got >= 1 {
		t.Fatalf("plan coverage under 30%% loss = %f, want < 1", got)
	}
	// The localized scheme completes in both, paying latency and energy.
	if a.Latency[harsh].Mean() <= a.Latency[clean].Mean() {
		t.Fatalf("loss did not slow the localized scheme: %f vs %f",
			a.Latency[harsh].Mean(), a.Latency[clean].Mean())
	}
	if a.Extra["retransmit-tx"][harsh].Mean() <= a.Extra["retransmit-tx"][clean].Mean() {
		t.Fatal("loss did not increase transmissions")
	}
}

func TestPlot(t *testing.T) {
	fig, err := Figure5(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	out := fig.Plot(60, 12)
	if !strings.Contains(out, "legend:") {
		t.Fatalf("plot missing legend:\n%s", out)
	}
	if !strings.Contains(out, "o="+SeriesOPTAnalysis) {
		t.Fatalf("plot missing series marker:\n%s", out)
	}
	lines := strings.Split(out, "\n")
	if len(lines) < 14 {
		t.Fatalf("plot too short: %d lines", len(lines))
	}
	// Markers must actually appear on the canvas.
	canvas := strings.Join(lines[1:13], "\n")
	if !strings.ContainsAny(canvas, "o*") {
		t.Fatalf("no markers drawn:\n%s", out)
	}
}

func TestPlotEmpty(t *testing.T) {
	f := &Figure{ID: "x", Title: "t"}
	if out := f.Plot(40, 8); !strings.Contains(out, "no data") {
		t.Fatalf("empty plot = %q", out)
	}
}

func TestAblationWakeFamily(t *testing.T) {
	a, err := AblationWakeFamily(ablationCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Variants) != 4 {
		t.Fatalf("variants = %v", a.Variants)
	}
	for _, v := range a.Variants {
		s := a.Latency[v]
		if s == nil || s.N() != 3 || s.Mean() <= 0 {
			t.Fatalf("variant %q sample = %+v", v, s)
		}
	}
	// Within each family, G-OPT (exact) is never worse than the E-model
	// policy it seeds from.
	for _, fam := range []string{"uniform", "staggered"} {
		if a.Latency[fam+"/G-OPT"].Mean() > a.Latency[fam+"/E-model"].Mean()+1e-9 {
			t.Fatalf("%s: G-OPT %f worse than E-model %f", fam,
				a.Latency[fam+"/G-OPT"].Mean(), a.Latency[fam+"/E-model"].Mean())
		}
	}
}
