package improve

import (
	"reflect"
	"testing"
	"time"

	"mlbs/internal/baseline"
	"mlbs/internal/core"
	"mlbs/internal/dutycycle"
	"mlbs/internal/graph"
	"mlbs/internal/sim"
	"mlbs/internal/topology"
)

// instance builds the paper-topology instance the service and benches
// use: uniform wake at rate r (1 = sync), K channels.
func instance(t testing.TB, n int, seed uint64, r, k int) core.Instance {
	t.Helper()
	dep, err := topology.Generate(topology.PaperConfig(n), seed)
	if err != nil {
		t.Fatal(err)
	}
	var in core.Instance
	if r > 1 {
		wake := dutycycle.NewUniform(n, r, seed^0xA5, 0)
		in = core.Async(dep.G, dep.Source, wake, 0)
	} else {
		in = core.Sync(dep.G, dep.Source)
	}
	if k > 1 {
		in.Channels = k
	}
	return in
}

// replayClean re-executes s through the sim referee. Schedule.Validate
// and the improver's candidate replay share core's slot walker, so the
// physics replay, which shares none of it, is the independent check that
// an improved schedule delivers: it must complete without a collision.
func replayClean(t testing.TB, in core.Instance, s *core.Schedule) {
	t.Helper()
	rep, err := sim.Replay(in, s)
	if err != nil {
		t.Fatalf("sim replay: %v", err)
	}
	if !rep.Completed || len(rep.Collisions) != 0 {
		t.Fatalf("sim replay: completed=%v with %d collisions", rep.Completed, len(rep.Collisions))
	}
}

func approximation(t testing.TB, in core.Instance) *core.Schedule {
	t.Helper()
	sched := baseline.New26()
	if in.Wake.Rate() > 1 {
		sched = baseline.New17()
	}
	res, err := sched.Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	return res.Schedule
}

func TestImproveTightensApproximation(t *testing.T) {
	in := instance(t, 150, 1, 10, 1)
	base := approximation(t, in)
	imp := New()
	out, st, err := imp.Improve(in, base, Options{MaxMoves: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Validate(in); err != nil {
		t.Fatalf("improved schedule invalid: %v", err)
	}
	if out.End() >= base.End() {
		t.Fatalf("17-approx end %d not improved (got %d); duty-cycle headroom is huge", base.End(), out.End())
	}
	if st.SlotsSaved != base.End()-out.End() {
		t.Errorf("SlotsSaved = %d, want %d", st.SlotsSaved, base.End()-out.End())
	}
	if st.Accepted == 0 || st.Searches == 0 {
		t.Errorf("stats show no work: %+v", st)
	}
}

// TestImproveProperties is the satellite property test: over random
// instances in both wake systems and K ∈ {1, 4}, the improver output
// always validates, never ends later than its input, and a fixed
// (seed, budget-in-moves) pair replays to the identical schedule.
func TestImproveProperties(t *testing.T) {
	cases := []struct {
		n int
		r int
		k int
	}{
		{40, 1, 1}, {60, 1, 1}, {80, 1, 4},
		{40, 5, 1}, {60, 10, 1}, {60, 10, 4}, {80, 5, 4},
	}
	imp := New() // deliberately reused across cases: arenas must not leak state
	for _, tc := range cases {
		for seed := uint64(1); seed <= 4; seed++ {
			in := instance(t, tc.n, seed, tc.r, tc.k)
			base := approximation(t, in)
			out, st, err := imp.Improve(in, base, Options{MaxMoves: 24})
			if err != nil {
				t.Fatalf("n=%d r=%d k=%d seed=%d: %v", tc.n, tc.r, tc.k, seed, err)
			}
			if err := out.Validate(in); err != nil {
				t.Fatalf("n=%d r=%d k=%d seed=%d: output invalid: %v", tc.n, tc.r, tc.k, seed, err)
			}
			replayClean(t, in, out)
			if out.End() > base.End() {
				t.Fatalf("n=%d r=%d k=%d seed=%d: end worsened %d → %d", tc.n, tc.r, tc.k, seed, base.End(), out.End())
			}
			if out.Latency() > base.Latency() {
				t.Fatalf("n=%d r=%d k=%d seed=%d: latency worsened %d → %d", tc.n, tc.r, tc.k, seed, base.Latency(), out.Latency())
			}
			// Determinism: a fresh improver replays to the same schedule
			// and the same stats.
			out2, st2, err := New().Improve(in, base, Options{MaxMoves: 24})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(out.Advances, out2.Advances) {
				t.Fatalf("n=%d r=%d k=%d seed=%d: move-budgeted run not deterministic", tc.n, tc.r, tc.k, seed)
			}
			if st != st2 {
				t.Fatalf("n=%d r=%d k=%d seed=%d: stats diverged: %+v vs %+v", tc.n, tc.r, tc.k, seed, st, st2)
			}
		}
	}
}

// TestImproveGapClosure pins the acceptance criterion: on the n=300
// paper topology with duty-cycle r=10, a 10ms improver budget closes at
// least half the latency gap between the 17-approximation and G-OPT.
func TestImproveGapClosure(t *testing.T) {
	in := instance(t, 300, 1, 10, 1)
	base := approximation(t, in)
	gres, err := core.NewGOPT(0).Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	gap := base.End() - gres.Schedule.End()
	if gap <= 0 {
		t.Fatalf("no gap to close: approx end %d, G-OPT end %d", base.End(), gres.Schedule.End())
	}
	out, st, err := New().Improve(in, base, Options{Deadline: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Validate(in); err != nil {
		t.Fatalf("improved schedule invalid: %v", err)
	}
	closed := base.End() - out.End()
	t.Logf("approx end %d, G-OPT end %d, improved end %d: closed %d of %d slots (%d moves, %d searches, %d states)",
		base.End(), gres.Schedule.End(), out.End(), closed, gap, st.Moves, st.Searches, st.Expanded)
	if closed*2 < gap {
		t.Fatalf("10ms budget closed %d of %d gap slots; acceptance wants ≥ 50%%", closed, gap)
	}
}

// TestImproveExactProof: with an unbounded budget on a small instance the
// improver's full-tail search proves greedy-move optimality, and the
// result matches G-OPT's end slot.
func TestImproveExactProof(t *testing.T) {
	in := instance(t, 60, 3, 1, 1)
	base := approximation(t, in)
	out, st, err := New().Improve(in, base, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged {
		t.Error("unbudgeted run did not converge")
	}
	if !st.Exact {
		t.Error("small sync instance should yield a greedy-optimality proof")
	}
	gres, err := core.NewGOPT(0).Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	if out.End() > gres.Schedule.End() {
		t.Errorf("exact-converged improver end %d above G-OPT end %d", out.End(), gres.Schedule.End())
	}
}

// TestOnImproveMonotone: every published intermediate is valid and ends
// no later than its predecessor — the contract the serving layer's
// generation counter builds on.
func TestOnImproveMonotone(t *testing.T) {
	in := instance(t, 120, 2, 10, 1)
	base := approximation(t, in)
	prevEnd := base.End()
	published := 0
	_, st, err := New().Improve(in, base, Options{MaxMoves: 48, OnImprove: func(s *core.Schedule, snap Stats) {
		published++
		if err := s.Validate(in); err != nil {
			t.Fatalf("published schedule %d invalid: %v", published, err)
		}
		if s.End() > prevEnd {
			t.Fatalf("published schedule %d worsened end %d → %d", published, prevEnd, s.End())
		}
		prevEnd = s.End()
		if snap.Accepted != published {
			t.Fatalf("snapshot Accepted %d at publication %d", snap.Accepted, published)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if published == 0 || st.Accepted != published {
		t.Fatalf("published %d, stats accepted %d", published, st.Accepted)
	}
}

func TestImproveRejectsInvalidInput(t *testing.T) {
	in := instance(t, 40, 1, 1, 1)
	bad := &core.Schedule{Source: in.Source, Start: in.Start} // covers nothing
	if _, _, err := New().Improve(in, bad, Options{}); err == nil {
		t.Fatal("invalid input schedule accepted")
	}
}

func TestImproveEmptySingleNode(t *testing.T) {
	in := core.Sync(graph.NewBuilder(1, nil).Build(), 0)
	empty := &core.Schedule{Source: in.Source, Start: in.Start}
	out, st, err := New().Improve(in, empty, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Advances) != 0 || !st.Converged {
		t.Fatalf("single-node improve: %+v, %+v", out, st)
	}
}

// fakeClock steps a fixed amount on every read, so a Deadline budget
// expires after a known number of clock consultations without sleeping.
type fakeClock struct {
	t     time.Time
	step  time.Duration
	reads int
}

func (c *fakeClock) now() time.Time {
	c.reads++
	c.t = c.t.Add(c.step)
	return c.t
}

// panicClock pins the determinism contract: a MaxMoves-only run must
// never consult the clock at all.
type panicClock struct{}

func (panicClock) now() time.Time { panic("MaxMoves-only run read the clock") }

func TestDeadlineBudgetWithInjectedClock(t *testing.T) {
	in := instance(t, 80, 3, 10, 1)
	base := approximation(t, in)

	clk := &fakeClock{t: time.Unix(0, 0), step: time.Millisecond}
	imp := New()
	imp.clk = clk
	out, st, err := imp.Improve(in, base, Options{Deadline: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Validate(in); err != nil {
		t.Fatalf("deadline-bounded schedule invalid: %v", err)
	}
	if out.End() > base.End() {
		t.Fatalf("end worsened: %d -> %d", base.End(), out.End())
	}
	if clk.reads < 2 {
		t.Fatalf("deadline run consulted the clock %d times, want ≥ 2", clk.reads)
	}
	// Every read advances 1ms and the deadline sits 5ms past the first,
	// so the budget dies by the sixth consultation; a run that ignored
	// the injected clock would converge in hundreds of moves.
	if st.Moves > 6 {
		t.Fatalf("deadline did not bite: %d moves spent", st.Moves)
	}
	if st.Converged {
		t.Fatalf("run reports convergence despite expiring deadline: %+v", st)
	}
}

func TestMaxMovesRunNeverReadsClock(t *testing.T) {
	in := instance(t, 60, 2, 10, 1)
	base := approximation(t, in)
	imp := New()
	imp.clk = panicClock{}
	out, _, err := imp.Improve(in, base, Options{MaxMoves: 24})
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Validate(in); err != nil {
		t.Fatalf("schedule invalid: %v", err)
	}
}

// TestCandidateEvaluationAllocFree pins the Improver's claim that warm
// candidate evaluation allocates nothing, for a candidate the slot walker
// accepts and for one it rejects (every advance pulled into the first
// slot, where later senders do not hold the message yet).
func TestCandidateEvaluationAllocFree(t *testing.T) {
	in := instance(t, 150, 1, 10, 4)
	base := approximation(t, in)
	rejected := append([]core.Advance(nil), base.Advances...)
	for i := range rejected {
		rejected[i].T = base.Advances[0].T
	}
	imp := New()
	for _, tc := range []struct {
		name string
		cand []core.Advance
		ok   bool
	}{{"accepted", base.Advances, true}, {"rejected", rejected, false}} {
		if _, _, _, ok := imp.replay(in, tc.cand, nil); ok != tc.ok { // warm-up
			t.Fatalf("%s candidate: replay ok=%v", tc.name, ok)
		}
		allocs := testing.AllocsPerRun(20, func() { imp.replay(in, tc.cand, nil) })
		if allocs != 0 {
			t.Errorf("%s candidate: warm evaluation allocated %.1f objects, want 0", tc.name, allocs)
		}
	}
}

// BenchmarkImprove times a 64-move run over the duty-cycle 17-approximation
// (n=150, r=10), the shape of mlb-bench's improve records.
func BenchmarkImprove(b *testing.B) {
	in := instance(b, 150, 1, 10, 1)
	base := approximation(b, in)
	imp := New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := imp.Improve(in, base, Options{MaxMoves: 64}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCandidateReplay times one warm candidate evaluation: the whole
// 17-approximation (n=150, r=10, K=4) through the improver's replay.
func BenchmarkCandidateReplay(b *testing.B) {
	in := instance(b, 150, 1, 10, 4)
	base := approximation(b, in)
	imp := New()
	imp.replay(in, base.Advances, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, ok := imp.replay(in, base.Advances, nil); !ok {
			b.Fatal("approximation rejected")
		}
	}
}
