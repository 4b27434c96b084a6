package core

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"mlbs/internal/dutycycle"
	"mlbs/internal/geom"
	"mlbs/internal/graph"
	"mlbs/internal/rng"
	"mlbs/internal/topology"
)

// fig2a is the Figure 2(a) example (paper node k = our k−1):
// edges 1–2, 1–3, 2–4, 2–5, 3–4; conflict at node 4.
func fig2a() *graph.Graph {
	return graph.NewBuilder(5, nil).
		AddEdge(0, 1).AddEdge(0, 2).
		AddEdge(1, 3).AddEdge(1, 4).
		AddEdge(2, 3).
		Build()
}

// pathGraph places n nodes on a line so that geometric schedulers
// (E-model) work on it too.
func pathGraph(n int) *graph.Graph {
	pos := make([]geom.Point, n)
	for i := range pos {
		pos[i] = geom.Point{X: float64(i), Y: 0}
	}
	return graph.FromUDG(pos, 1)
}

func allSchedulers() []Scheduler {
	return []Scheduler{
		NewOPT(0, 0),
		NewGOPT(0),
		NewPolicy("max-coverage", MaxCoverageRule{}),
		NewPolicy("first-color", FirstColorRule{}),
	}
}

func TestInstanceValidate(t *testing.T) {
	g := fig2a()
	good := Sync(g, 0)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Instance{
		{G: nil, Source: 0, Start: 1, Wake: dutycycle.AlwaysAwake{Nodes: 5}},
		{G: g, Source: -1, Start: 1, Wake: dutycycle.AlwaysAwake{Nodes: 5}},
		{G: g, Source: 9, Start: 1, Wake: dutycycle.AlwaysAwake{Nodes: 5}},
		{G: g, Source: 0, Start: 1, Wake: nil},
		{G: g, Source: 0, Start: 1, Wake: dutycycle.AlwaysAwake{Nodes: 2}},
		{G: g, Source: 0, Start: -3, Wake: dutycycle.AlwaysAwake{Nodes: 5}},
		{G: g, Source: 0, Start: 1, Wake: dutycycle.AlwaysAwake{Nodes: 5}, PreCovered: []graph.NodeID{77}},
	}
	for i, in := range bad {
		if err := in.Validate(); err == nil {
			t.Fatalf("bad instance %d validated", i)
		}
	}
	disconnected := graph.NewBuilder(3, nil).AddEdge(0, 1).Build()
	if err := Sync(disconnected, 0).Validate(); err == nil {
		t.Fatal("disconnected instance validated")
	}
}

// Table II: the schedule for Figure 2(a) with t_s = 1 has P(A) = 2.
func TestTableIIOptimalValue(t *testing.T) {
	in := Sync(fig2a(), 0)
	for _, s := range []Scheduler{NewOPT(0, 0), NewGOPT(0)} {
		res, err := s.Schedule(in)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if res.PA != 2 {
			t.Fatalf("%s: P(A) = %d, want 2 (Table II)", s.Name(), res.PA)
		}
		if !res.Exact {
			t.Fatalf("%s: not exact on a 5-node fixture", s.Name())
		}
		if err := res.Schedule.Validate(in); err != nil {
			t.Fatalf("%s: invalid schedule: %v", s.Name(), err)
		}
		// The optimal first advance fires the source; the second fires
		// paper-node 2 (our node 1), covering {4,5}.
		adv := res.Schedule.Advances
		if len(adv) != 2 || adv[0].T != 1 || adv[1].T != 2 {
			t.Fatalf("%s: advances = %+v", s.Name(), adv)
		}
		if len(adv[1].Senders) != 1 || adv[1].Senders[0] != 1 {
			t.Fatalf("%s: second advance senders = %v, want [1]", s.Name(), adv[1].Senders)
		}
	}
}

func TestPathBroadcast(t *testing.T) {
	// On a path from one end every scheduler needs exactly n−1 advances.
	g := pathGraph(6)
	in := Sync(g, 0)
	for _, s := range allSchedulers() {
		res, err := s.Schedule(in)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if res.PA != 5 {
			t.Fatalf("%s: P(A) = %d, want 5", s.Name(), res.PA)
		}
		if err := res.Schedule.Validate(in); err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
	}
}

func TestStarBroadcast(t *testing.T) {
	b := graph.NewBuilder(6, nil)
	for v := 1; v < 6; v++ {
		b.AddEdge(0, v)
	}
	in := Sync(b.Build(), 0)
	for _, s := range allSchedulers() {
		res, err := s.Schedule(in)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if res.PA != 1 {
			t.Fatalf("%s: P(A) = %d, want 1", s.Name(), res.PA)
		}
	}
}

func TestSingleNode(t *testing.T) {
	g := graph.NewBuilder(1, nil).Build()
	in := Sync(g, 0)
	res, err := NewGOPT(0).Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Schedule.Advances) != 0 || res.Schedule.Latency() != 0 {
		t.Fatalf("single node: %+v", res.Schedule)
	}
	if !res.Exact {
		t.Fatal("single node must be exact")
	}
}

func TestScheduleAccessors(t *testing.T) {
	s := &Schedule{Source: 0, Start: 3}
	if s.End() != 2 || s.Latency() != 0 {
		t.Fatalf("empty schedule End=%d Latency=%d", s.End(), s.Latency())
	}
	s.Advances = []Advance{{T: 3}, {T: 5}}
	if s.End() != 5 || s.PA() != 5 || s.Latency() != 3 {
		t.Fatalf("End=%d PA=%d Latency=%d", s.End(), s.PA(), s.Latency())
	}
}

func TestValidateCatchesTampering(t *testing.T) {
	in := Sync(fig2a(), 0)
	res, err := NewGOPT(0).Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	tamper := func(mutate func(s *Schedule)) error {
		cp := &Schedule{Source: res.Schedule.Source, Start: res.Schedule.Start}
		for _, a := range res.Schedule.Advances {
			cp.Advances = append(cp.Advances, Advance{
				T:       a.T,
				Senders: append([]graph.NodeID(nil), a.Senders...),
				Covered: append([]graph.NodeID(nil), a.Covered...),
			})
		}
		mutate(cp)
		return cp.Validate(in)
	}
	cases := map[string]func(*Schedule){
		"time regression":  func(s *Schedule) { s.Advances[1].T = s.Advances[0].T },
		"uncovered sender": func(s *Schedule) { s.Advances[0].Senders = []graph.NodeID{4} },
		"conflict":         func(s *Schedule) { s.Advances[1].Senders = []graph.NodeID{1, 2} },
		"wrong coverage":   func(s *Schedule) { s.Advances[1].Covered = []graph.NodeID{3} },
		"incomplete":       func(s *Schedule) { s.Advances = s.Advances[:1] },
		"empty advance":    func(s *Schedule) { s.Advances[0].Senders = nil },
	}
	for name, m := range cases {
		if err := tamper(m); err == nil {
			t.Fatalf("%s: tampered schedule validated", name)
		}
	}
}

func TestValidateAsleepSender(t *testing.T) {
	g := pathGraph(3)
	wake := dutycycle.NewFixed(10, 10, [][]int{{1}, {5}, {9}})
	in := Instance{G: g, Source: 0, Start: 1, Wake: wake}
	s := &Schedule{Source: 0, Start: 1, Advances: []Advance{
		{T: 1, Senders: []graph.NodeID{0}, Covered: []graph.NodeID{1}},
		{T: 3, Senders: []graph.NodeID{1}, Covered: []graph.NodeID{2}}, // 1 sleeps at 3
	}}
	if err := s.Validate(in); err == nil || !strings.Contains(err.Error(), "asleep") {
		t.Fatalf("want asleep error, got %v", err)
	}
}

func TestAsyncPathWaitsForWakeups(t *testing.T) {
	// Path 0–1–2; node 0 wakes at slot 1, node 1 at slot 5 (then 15...).
	g := pathGraph(3)
	wake := dutycycle.NewFixed(10, 10, [][]int{{1}, {5}, {0}})
	in := Async(g, 0, wake, 0)
	if in.Start != 1 {
		t.Fatalf("Start = %d, want source's wake slot 1", in.Start)
	}
	for _, s := range []Scheduler{NewOPT(0, 0), NewGOPT(0), NewEModel()} {
		res, err := s.Schedule(in)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if res.PA != 5 {
			t.Fatalf("%s: P(A) = %d, want 5 (waits for node 1's wake-up)", s.Name(), res.PA)
		}
		if err := res.Schedule.Validate(in); err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
	}
}

func TestAsyncChoosesFastPath(t *testing.T) {
	// Diamond: 0–1, 0–2, 1–3, 2–3. Node 1 wakes soon (slot 2), node 2 late
	// (slot 9). OPT and G-OPT must route through node 1 for P(A)=2; only
	// after covering 3. Firing the wrong relay costs 7 extra slots.
	g := graph.NewBuilder(4, nil).AddEdge(0, 1).AddEdge(0, 2).AddEdge(1, 3).AddEdge(2, 3).Build()
	wake := dutycycle.NewFixed(20, 10, [][]int{{0}, {2}, {9}, {15}})
	in := Async(g, 0, wake, 0)
	for _, s := range []Scheduler{NewOPT(0, 0), NewGOPT(0)} {
		res, err := s.Schedule(in)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if res.PA != 2 {
			t.Fatalf("%s: P(A) = %d, want 2", s.Name(), res.PA)
		}
		if !res.Exact {
			t.Fatalf("%s: inexact on 4-node fixture", s.Name())
		}
	}
}

func TestSearchBudgetTruncation(t *testing.T) {
	// A budget of 2 must be respected; the result must stay valid; and an
	// Exact claim (possible — the incumbent may hit the hop lower bound,
	// which proves optimality without expansion) must agree with the
	// unbounded search.
	d, err := topology.Generate(topology.PaperConfig(50), 3)
	if err != nil {
		t.Fatal(err)
	}
	in := Sync(d.G, d.Source)
	tiny, err := NewSearch("tiny", SearchConfig{Moves: GreedyMoves, Budget: 2,
		Incumbent: NewPolicy("random", RandomRule{Src: rng.New(99)})}).Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	if tiny.Stats.Expanded > 2 {
		t.Fatalf("expanded %d states with budget 2", tiny.Stats.Expanded)
	}
	if err := tiny.Schedule.Validate(in); err != nil {
		t.Fatalf("truncated search must still return a valid schedule: %v", err)
	}
	full, err := NewGOPT(5_000_000).Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	if full.Exact {
		if tiny.Exact && tiny.PA != full.PA {
			t.Fatalf("budget-2 search claims exact %d but optimum is %d", tiny.PA, full.PA)
		}
		if tiny.PA < full.PA {
			t.Fatalf("truncated result %d beats the proven optimum %d", tiny.PA, full.PA)
		}
	}
}

func TestGOPTNeverWorseThanEModel(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		d, err := topology.Generate(topology.PaperConfig(60), seed)
		if err != nil {
			t.Fatal(err)
		}
		in := Sync(d.G, d.Source)
		em, err := NewEModel().Schedule(in)
		if err != nil {
			t.Fatal(err)
		}
		gopt, err := NewGOPT(0).Schedule(in)
		if err != nil {
			t.Fatal(err)
		}
		if gopt.PA > em.PA {
			t.Fatalf("seed %d: G-OPT %d worse than its E-model incumbent %d", seed, gopt.PA, em.PA)
		}
	}
}

func TestOPTNeverWorseThanGOPT(t *testing.T) {
	// Greedy classes are maximal conflict-free sets, so exact OPT ≤ exact
	// G-OPT.
	for seed := uint64(1); seed <= 8; seed++ {
		src := rng.New(seed)
		n := 8 + src.Intn(8)
		b := graph.NewBuilder(n, nil)
		for i := 1; i < n; i++ {
			b.AddEdge(i, src.Intn(i))
		}
		for k := 0; k < n/2; k++ {
			u, v := src.Intn(n), src.Intn(n)
			if u != v {
				b.AddEdge(u, v)
			}
		}
		in := Sync(b.Build(), 0)
		opt, err := NewOPT(0, 0).Schedule(in)
		if err != nil {
			t.Fatal(err)
		}
		gopt, err := NewGOPT(0).Schedule(in)
		if err != nil {
			t.Fatal(err)
		}
		if !opt.Exact || !gopt.Exact {
			t.Fatalf("seed %d: expected exact on %d nodes", seed, n)
		}
		if opt.PA > gopt.PA {
			t.Fatalf("seed %d: OPT %d > G-OPT %d", seed, opt.PA, gopt.PA)
		}
	}
}

// Theorem 1 (sync): the optimal latency is at most d+2 rounds.
func TestTheorem1Sync(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		cfg := topology.Config{N: 40, AreaSide: 35, Radius: 10, MaxRetries: 100}
		d, err := topology.Generate(cfg, seed)
		if err != nil {
			t.Fatal(err)
		}
		in := Sync(d.G, d.Source)
		res, err := NewGOPT(2_000_000).Schedule(in)
		if err != nil {
			t.Fatal(err)
		}
		ecc, _ := d.G.Eccentricity(d.Source)
		if res.Exact && res.Schedule.Latency() > SyncLatencyBound(ecc) {
			t.Fatalf("seed %d: optimal latency %d exceeds Theorem 1 bound %d (d=%d)",
				seed, res.Schedule.Latency(), SyncLatencyBound(ecc), ecc)
		}
	}
}

// Monotonicity: enlarging the initial coverage never increases OPT's P(A).
func TestQuickMonotonicity(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed)
		n := 6 + src.Intn(6)
		b := graph.NewBuilder(n, nil)
		for i := 1; i < n; i++ {
			b.AddEdge(i, src.Intn(i))
		}
		for k := 0; k < n/3; k++ {
			u, v := src.Intn(n), src.Intn(n)
			if u != v {
				b.AddEdge(u, v)
			}
		}
		g := b.Build()
		base := Sync(g, 0)
		extra := Sync(g, 0)
		extra.PreCovered = []graph.NodeID{src.Intn(n)}
		rb, err := NewOPT(0, 0).Schedule(base)
		if err != nil {
			return false
		}
		re, err := NewOPT(0, 0).Schedule(extra)
		if err != nil {
			return false
		}
		if !rb.Exact || !re.Exact {
			return true // don't judge truncated runs
		}
		return re.PA <= rb.PA
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Every scheduler's output must pass full validation on random instances,
// sync and async.
func TestQuickSchedulesValid(t *testing.T) {
	f := func(seed uint64) bool {
		cfg := topology.Config{N: 30, AreaSide: 30, Radius: 10, MaxRetries: 60}
		d, err := topology.Generate(cfg, seed)
		if err != nil {
			return true
		}
		wake := dutycycle.NewUniform(d.G.N(), 5, seed, 0)
		instances := []Instance{
			Sync(d.G, d.Source),
			Async(d.G, d.Source, wake, 0),
		}
		for _, in := range instances {
			for _, s := range []Scheduler{NewOPT(50_000, 0), NewGOPT(50_000), NewEModel()} {
				res, err := s.Schedule(in)
				if err != nil {
					return false
				}
				if err := res.Schedule.Validate(in); err != nil {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestBounds(t *testing.T) {
	if SyncLatencyBound(6) != 8 {
		t.Fatal("SyncLatencyBound")
	}
	if AsyncLatencyBound(10, 6) != 160 {
		t.Fatal("AsyncLatencyBound")
	}
	if Ref12LatencyBound(10, 6) != 2040 {
		t.Fatal("Ref12LatencyBound")
	}
}

func TestPolicyDeterminism(t *testing.T) {
	d, err := topology.Generate(topology.PaperConfig(100), 9)
	if err != nil {
		t.Fatal(err)
	}
	in := Sync(d.G, d.Source)
	a, err := NewEModel().Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewEModel().Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	if a.PA != b.PA || len(a.Schedule.Advances) != len(b.Schedule.Advances) {
		t.Fatal("E-model not deterministic")
	}
}

func TestRandomRuleStillValid(t *testing.T) {
	d, err := topology.Generate(topology.PaperConfig(60), 2)
	if err != nil {
		t.Fatal(err)
	}
	in := Sync(d.G, d.Source)
	res, err := NewPolicy("random", RandomRule{Src: rng.New(4)}).Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Schedule.Validate(in); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEModel150(b *testing.B) {
	d, err := topology.Generate(topology.PaperConfig(150), 1)
	if err != nil {
		b.Fatal(err)
	}
	in := Sync(d.G, d.Source)
	s := NewEModel()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.Schedule(in); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGOPT100(b *testing.B) {
	d, err := topology.Generate(topology.PaperConfig(100), 1)
	if err != nil {
		b.Fatal(err)
	}
	in := Sync(d.G, d.Source)
	s := NewGOPT(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.Schedule(in); err != nil {
			b.Fatal(err)
		}
	}
}

func TestEnergyAwareRule(t *testing.T) {
	// The energy variant must stay valid and never transmit more frames
	// than it covers nodes plus advances (each advance's senders ≤ what a
	// plain E-model would use on ties).
	d, err := topology.Generate(topology.PaperConfig(120), 4)
	if err != nil {
		t.Fatal(err)
	}
	in := Sync(d.G, d.Source)
	res, err := NewEnergyAware().Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Schedule.Validate(in); err != nil {
		t.Fatal(err)
	}
	em, err := NewEModel().Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	// Energy tie-breaking must not change the primary criterion wildly:
	// within a couple of rounds of the plain E-model.
	if diff := res.Schedule.Latency() - em.Schedule.Latency(); diff > 2 || diff < -2 {
		t.Fatalf("energy variant latency %d vs E-model %d", res.Schedule.Latency(), em.Schedule.Latency())
	}
}

func TestEnergyAwareRequiresGeometry(t *testing.T) {
	g := graph.NewBuilder(3, nil).AddEdge(0, 1).AddEdge(1, 2).Build()
	if _, err := NewEnergyAware().Schedule(Sync(g, 0)); err == nil {
		t.Fatal("degenerate geometry accepted")
	}
}

// TestAbstractGraphIncumbent pins the incumbent fallback: the kite is
// built without positions, so every node sits at the origin and the
// E-model cannot run. A one-state search never improves on its seed, so
// it returns the incumbent itself, which must be the max-coverage
// rollout.
func TestAbstractGraphIncumbent(t *testing.T) {
	in := Sync(kite(), 0)
	want, err := NewPolicy("max-coverage", MaxCoverageRule{}).Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	res, err := NewSearch("one-state", SearchConfig{Moves: GreedyMoves, Budget: 1}).Schedule(in)
	if err != nil {
		t.Fatalf("search on a position-free graph: %v", err)
	}
	if !reflect.DeepEqual(res.Schedule.Advances, want.Schedule.Advances) {
		t.Fatalf("incumbent %v, want the max-coverage rollout %v", res.Schedule.Advances, want.Schedule.Advances)
	}
}
