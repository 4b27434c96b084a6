// Benchmarks regenerating every table and figure of the paper's
// evaluation, plus the pipelining ablation of DESIGN.md §7 (the
// selection, E-seeding and budget ablations sit with the schedulers, in
// internal/core). Figure
// benches run a reduced sweep (2 trials, 3 densities) per iteration so
// `go test -bench=.` stays tractable; the full-size series are produced by
// cmd/mlb-sweep and recorded in EXPERIMENTS.md. Custom metrics attach the
// scientific output (mean rounds/slots) to the timing rows.
package mlbs_test

import (
	"testing"

	"mlbs"
)

// benchFigureCfg is the reduced sweep used by the figure benchmarks.
func benchFigureCfg(counts ...int) mlbs.ExperimentConfig {
	return mlbs.ExperimentConfig{Trials: 2, Seed: 1, NodeCounts: counts}
}

// reportSeries attaches each series' mean at the densest point. Metric
// units may not contain whitespace, so series names are slugified
// ("bound of [12]" → "bound-of-12").
func reportSeries(b *testing.B, fig *mlbs.Figure) {
	b.Helper()
	last := fig.Points[len(fig.Points)-1]
	for _, name := range fig.Names {
		if s, ok := last.Series[name]; ok {
			b.ReportMetric(s.Mean(), slug(name)+"_mean")
		}
	}
}

func slug(name string) string {
	var out []rune
	for _, r := range name {
		switch {
		case r == ' ':
			out = append(out, '-')
		case r == '[' || r == ']':
			// drop
		default:
			out = append(out, r)
		}
	}
	return string(out)
}

func BenchmarkFigure3(b *testing.B) {
	cfg := benchFigureCfg(50, 150, 300)
	var fig *mlbs.Figure
	var err error
	for i := 0; i < b.N; i++ {
		if fig, err = mlbs.Figure3(cfg); err != nil {
			b.Fatal(err)
		}
	}
	reportSeries(b, fig)
}

func BenchmarkFigure4(b *testing.B) {
	cfg := benchFigureCfg(50, 150)
	var fig *mlbs.Figure
	var err error
	for i := 0; i < b.N; i++ {
		if fig, err = mlbs.Figure4(cfg); err != nil {
			b.Fatal(err)
		}
	}
	reportSeries(b, fig)
}

func BenchmarkFigure5(b *testing.B) {
	cfg := benchFigureCfg(50, 150, 300)
	var fig *mlbs.Figure
	var err error
	for i := 0; i < b.N; i++ {
		if fig, err = mlbs.FigureByID(5, cfg); err != nil {
			b.Fatal(err)
		}
	}
	reportSeries(b, fig)
}

func BenchmarkFigure6(b *testing.B) {
	cfg := benchFigureCfg(50, 150)
	var fig *mlbs.Figure
	var err error
	for i := 0; i < b.N; i++ {
		if fig, err = mlbs.Figure6(cfg); err != nil {
			b.Fatal(err)
		}
	}
	reportSeries(b, fig)
}

func BenchmarkFigure7(b *testing.B) {
	cfg := benchFigureCfg(50, 150, 300)
	var fig *mlbs.Figure
	var err error
	for i := 0; i < b.N; i++ {
		if fig, err = mlbs.FigureByID(7, cfg); err != nil {
			b.Fatal(err)
		}
	}
	reportSeries(b, fig)
}

func BenchmarkTableII(b *testing.B) {
	g, src := mlbs.Figure2()
	in := mlbs.SyncInstance(g, src)
	var rows []mlbs.TraceRow
	var err error
	for i := 0; i < b.N; i++ {
		if rows, err = mlbs.TraceGOPT(in, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(rows)), "rows")
}

func BenchmarkTableIII(b *testing.B) {
	g, src := mlbs.Figure1()
	in := mlbs.SyncInstance(g, src)
	var rows []mlbs.TraceRow
	var err error
	for i := 0; i < b.N; i++ {
		if rows, err = mlbs.TraceGOPT(in, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(rows)), "rows")
}

func BenchmarkTableIV(b *testing.B) {
	g, src := mlbs.Figure2()
	in := mlbs.Instance{G: g, Source: src, Start: 2, Wake: mlbs.TableIVWake()}
	var rows []mlbs.TraceRow
	var err error
	for i := 0; i < b.N; i++ {
		if rows, err = mlbs.TraceGOPT(in, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(rows)), "rows")
}

// benchScheduler measures one scheduler on one instance and attaches its
// P(A) latency. The timer restarts after instance construction so ns/op
// and allocs/op cover only Schedule itself.
//
// Before/after the allocation-free search-core refactor (same machine,
// Intel Xeon @ 2.10GHz; "before" numbers predate the ResetTimer and so
// slightly overcount, which only understates the win):
//
//	BenchmarkSchedulerSyncGOPT300      14565660 ns/op  19902 allocs/op  →   11748322 ns/op  715 allocs/op
//	BenchmarkSchedulerSyncOPT300       14385961 ns/op  19933 allocs/op  →   12121464 ns/op  751 allocs/op
//	BenchmarkSchedulerSyncEModel300     5516558 ns/op  10027 allocs/op  →    2542998 ns/op  164 allocs/op
//	BenchmarkSchedulerDutyGOPT300R10  609374102 ns/op  19041 allocs/op  →  153711523 ns/op  841 allocs/op
//	BenchmarkSchedulerDutyEModel300R10 587065807 ns/op 11062 allocs/op  →  153598336 ns/op  218 allocs/op
//
// Ongoing numbers are tracked by cmd/mlb-bench (BENCH_*.json) in CI.
func benchScheduler(b *testing.B, in mlbs.Instance, s mlbs.Scheduler) {
	b.Helper()
	var res *mlbs.Result
	var err error
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res, err = s.Schedule(in); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Schedule.Latency()), "latency")
}

func syncInstance300(b *testing.B) mlbs.Instance {
	b.Helper()
	dep, err := mlbs.PaperDeployment(300, 1)
	if err != nil {
		b.Fatal(err)
	}
	return mlbs.SyncInstance(dep.G, dep.Source)
}

func dutyInstance300(b *testing.B, r int) mlbs.Instance {
	b.Helper()
	dep, err := mlbs.PaperDeployment(300, 1)
	if err != nil {
		b.Fatal(err)
	}
	return mlbs.AsyncInstance(dep.G, dep.Source, mlbs.UniformWake(300, r, 9), 0)
}

func BenchmarkSchedulerSyncEModel300(b *testing.B) {
	benchScheduler(b, syncInstance300(b), mlbs.EModel())
}
func BenchmarkSchedulerSyncGOPT300(b *testing.B) { benchScheduler(b, syncInstance300(b), mlbs.GOPT()) }
func BenchmarkSchedulerSyncOPT300(b *testing.B)  { benchScheduler(b, syncInstance300(b), mlbs.OPT()) }
func BenchmarkSchedulerSync26Approx300(b *testing.B) {
	benchScheduler(b, syncInstance300(b), mlbs.Baseline26())
}

func BenchmarkSchedulerDutyEModel300R10(b *testing.B) {
	benchScheduler(b, dutyInstance300(b, 10), mlbs.EModel())
}
func BenchmarkSchedulerDutyGOPT300R10(b *testing.B) {
	benchScheduler(b, dutyInstance300(b, 10), mlbs.GOPT())
}
func BenchmarkSchedulerDuty17Approx300R10(b *testing.B) {
	benchScheduler(b, dutyInstance300(b, 10), mlbs.Baseline17())
}

// Ablation: pipelining. The same greedy colors, with immediate re-coloring
// (E-model) versus BFS-layer blocking (the baseline) — isolates the
// paper's core mechanism.
func BenchmarkAblationPipeline(b *testing.B) {
	in := syncInstance300(b)
	b.Run("pipelined", func(b *testing.B) { benchScheduler(b, in, mlbs.EModel()) })
	b.Run("layer-blocked", func(b *testing.B) { benchScheduler(b, in, mlbs.Baseline26()) })
}

// Localized future-work scheme at paper scale.
func BenchmarkLocalized300(b *testing.B) {
	in := syncInstance300(b)
	var lat int
	for i := 0; i < b.N; i++ {
		rep, _, err := mlbs.LocalizedRun(in)
		if err != nil {
			b.Fatal(err)
		}
		lat = rep.Latency()
	}
	b.ReportMetric(float64(lat), "latency")
}
