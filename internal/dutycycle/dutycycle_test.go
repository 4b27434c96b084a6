package dutycycle

import (
	"testing"
	"testing/quick"
)

func TestAlwaysAwake(t *testing.T) {
	s := AlwaysAwake{Nodes: 3}
	if !s.Awake(0, 0) || !s.Awake(2, 999) {
		t.Fatal("AlwaysAwake must always be awake")
	}
	if s.NextAwake(1, 17) != 17 {
		t.Fatal("NextAwake must be the identity")
	}
	if s.Period() != 1 || s.Rate() != 1 || s.N() != 3 {
		t.Fatal("AlwaysAwake metadata wrong")
	}
}

func TestUniformOneWakePerCycle(t *testing.T) {
	s := NewUniform(20, 10, 7, 0)
	for u := 0; u < s.N(); u++ {
		for c := 0; c < 50; c++ {
			count := 0
			for t := c * 10; t < (c+1)*10; t++ {
				if s.Awake(u, t) {
					count++
				}
			}
			if count != 1 {
				t.Fatalf("node %d cycle %d has %d wake slots, want 1", u, c, count)
			}
		}
	}
}

func TestUniformDeterministic(t *testing.T) {
	a := NewUniform(10, 10, 42, 0)
	b := NewUniform(10, 10, 42, 0)
	for u := 0; u < 10; u++ {
		for tt := 0; tt < 200; tt++ {
			if a.Awake(u, tt) != b.Awake(u, tt) {
				t.Fatalf("same seed diverged at node %d slot %d", u, tt)
			}
		}
	}
}

func TestUniformSeedsDiffer(t *testing.T) {
	s := NewUniform(2, 50, 3, 0)
	same := true
	for c := 0; c < 20 && same; c++ {
		if s.offset(0, c) != s.offset(1, c) {
			same = false
		}
	}
	if same {
		t.Fatal("two nodes share the whole wake sequence; seeds not independent")
	}
}

func TestUniformNextAwake(t *testing.T) {
	s := NewUniform(5, 10, 11, 0)
	for u := 0; u < 5; u++ {
		for tt := 0; tt < 100; tt += 7 {
			w := s.NextAwake(u, tt)
			if w < tt {
				t.Fatalf("NextAwake(%d,%d) = %d < t", u, tt, w)
			}
			if !s.Awake(u, w) {
				t.Fatalf("NextAwake(%d,%d) = %d is not a wake slot", u, tt, w)
			}
			for x := tt; x < w; x++ {
				if s.Awake(u, x) {
					t.Fatalf("NextAwake(%d,%d) skipped earlier wake slot %d", u, tt, x)
				}
			}
			if gap := w - tt; gap >= 2*10 {
				t.Fatalf("wake gap %d ≥ 2r; uniform-per-cycle guarantees < 2r", gap)
			}
		}
	}
}

func TestUniformPeriodicity(t *testing.T) {
	s := NewUniform(4, 10, 9, 8) // short period for the test: 80 slots
	p := s.Period()
	if p != 80 {
		t.Fatalf("Period = %d, want 80", p)
	}
	for u := 0; u < 4; u++ {
		for tt := 0; tt < p; tt++ {
			if s.Awake(u, tt) != s.Awake(u, tt+p) {
				t.Fatalf("schedule not periodic at node %d slot %d", u, tt)
			}
		}
	}
}

func TestUniformNegativeSlot(t *testing.T) {
	s := NewUniform(1, 10, 1, 0)
	if s.Awake(0, -1) {
		t.Fatal("negative slots must not be awake")
	}
	if w := s.NextAwake(0, -5); w < 0 || !s.Awake(0, w) {
		t.Fatalf("NextAwake from negative = %d", w)
	}
}

func TestUniformRateAverage(t *testing.T) {
	s := NewUniform(1, 10, 21, 0)
	wakes := WakeSlotsInWindow(s, 0, 0, 10*1000)
	if len(wakes) != 1000 {
		t.Fatalf("got %d wakes in 1000 cycles, want exactly 1000", len(wakes))
	}
	if s.Rate() != 10 {
		t.Fatalf("Rate = %d, want 10", s.Rate())
	}
}

func TestNewUniformPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"negative n": func() { NewUniform(-1, 10, 1, 0) },
		"zero rate":  func() { NewUniform(1, 0, 1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestFixedSchedule(t *testing.T) {
	s := NewFixed(10, 5, [][]int{{2, 7}, {0}})
	if !s.Awake(0, 2) || !s.Awake(0, 7) || s.Awake(0, 3) {
		t.Fatal("Fixed Awake wrong within first period")
	}
	if !s.Awake(0, 12) {
		t.Fatal("Fixed must repeat with the period")
	}
	if got := s.NextAwake(0, 3); got != 7 {
		t.Fatalf("NextAwake(0,3) = %d, want 7", got)
	}
	if got := s.NextAwake(0, 8); got != 12 {
		t.Fatalf("NextAwake(0,8) = %d, want 12 (wrap)", got)
	}
	if got := s.NextAwake(1, 1); got != 10 {
		t.Fatalf("NextAwake(1,1) = %d, want 10", got)
	}
	if s.Period() != 10 || s.Rate() != 5 || s.N() != 2 {
		t.Fatal("Fixed metadata wrong")
	}
}

func TestNewFixedValidation(t *testing.T) {
	for name, fn := range map[string]func(){
		"empty slots":  func() { NewFixed(10, 1, [][]int{{}}) },
		"out of range": func() { NewFixed(10, 1, [][]int{{10}}) },
		"unsorted":     func() { NewFixed(10, 1, [][]int{{5, 5}}) },
		"bad period":   func() { NewFixed(0, 1, nil) },
		"bad rate":     func() { NewFixed(5, 0, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestPeriodicPhase(t *testing.T) {
	s := NewPeriodicPhase(10, []int{3, 3})
	if !s.Awake(0, 3) || !s.Awake(0, 13) || s.Awake(0, 4) {
		t.Fatal("PeriodicPhase Awake wrong")
	}
	if got := s.NextAwake(1, 4); got != 13 {
		t.Fatalf("NextAwake = %d, want 13", got)
	}
	if got := s.NextAwake(1, 3); got != 3 {
		t.Fatalf("NextAwake at wake slot = %d, want 3", got)
	}
}

func TestCWT(t *testing.T) {
	// u wakes at 2; v wakes at 5 within period 10.
	s := NewFixed(10, 10, [][]int{{2}, {5}})
	if got := CWT(s, 0, 1, 2); got != 3 {
		t.Fatalf("CWT = %d, want 3", got)
	}
	// Transmit exactly at v's wake slot: must wait a full period, since the
	// paper requires t_i > t (v forwards at a *later* wake-up).
	if got := CWT(s, 1, 0, 2); got != 10 {
		t.Fatalf("CWT same-slot = %d, want 10", got)
	}
}

func TestCWTWorstCaseSamePhase(t *testing.T) {
	// Theorem 1's worst case: both ends share the schedule, so every hop
	// waits one full cycle r.
	s := NewPeriodicPhase(10, []int{4, 4})
	if got := CWT(s, 0, 1, 4); got != 10 {
		t.Fatalf("CWT = %d, want full cycle 10", got)
	}
}

func TestMeanCWT(t *testing.T) {
	// u wakes at 0, v wakes at 1 ⇒ CWT always 1.
	s := NewPeriodicPhase(4, []int{0, 1})
	if got := MeanCWT(s, 0, 1); got != 1 {
		t.Fatalf("MeanCWT = %f, want 1", got)
	}
	// Reverse direction: v wakes at 0, so from u's slot 1 the wait is 3.
	if got := MeanCWT(s, 1, 0); got != 3 {
		t.Fatalf("MeanCWT reverse = %f, want 3", got)
	}
}

func TestMeanCWTUniformApproxExpected(t *testing.T) {
	// For independent uniform wake slots the mean CWT is ≈ r (the mean gap
	// from a uniform point to the next uniform point in the following
	// cycle window is r for the wrap-around structure; we check the broad
	// band 0.5r..1.5r to catch gross errors without overfitting).
	s := NewUniform(2, 10, 77, 0)
	m := MeanCWT(s, 0, 1)
	if m < 5 || m > 15 {
		t.Fatalf("MeanCWT = %f, expected within [5,15] for r=10", m)
	}
}

func TestWakeSlotsInWindow(t *testing.T) {
	s := NewFixed(10, 10, [][]int{{2, 7}})
	got := WakeSlotsInWindow(s, 0, 0, 20)
	want := []int{2, 7, 12, 17}
	if len(got) != len(want) {
		t.Fatalf("WakeSlotsInWindow = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("WakeSlotsInWindow = %v, want %v", got, want)
		}
	}
}

// Property: for every schedule type, NextAwake(u,t) is the minimal awake
// slot ≥ t and Awake is periodic with Period().
func TestQuickScheduleContract(t *testing.T) {
	f := func(seed uint64, rRaw, uRaw uint8) bool {
		r := int(rRaw%20) + 1
		var scheds []Schedule
		scheds = append(scheds, NewUniform(4, r, seed, 4))
		phases := make([]int, 4)
		for i := range phases {
			phases[i] = int(seed>>uint(i*8)) % r
			if phases[i] < 0 {
				phases[i] += r
			}
		}
		scheds = append(scheds, NewPeriodicPhase(r, phases))
		for _, s := range scheds {
			u := int(uRaw) % 4
			p := s.Period()
			for tt := 0; tt < 2*p && tt < 400; tt++ {
				w := s.NextAwake(u, tt)
				if w < tt || !s.Awake(u, w) {
					return false
				}
				if s.Awake(u, tt) != s.Awake(u, tt+p) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUniformNextAwake(b *testing.B) {
	s := NewUniform(300, 50, 5, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = s.NextAwake(i%300, i%5000)
	}
}

// BenchmarkOffsetTable100 is the per-plan table build of the duty-cycle
// E-model at the paper's n=100, r=10 and the default 1024 cycles: the
// seeded draws plus the bit-plane transpose.
func BenchmarkOffsetTable100(b *testing.B) {
	s := NewUniform(100, 10, 1^0xA5, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = s.OffsetTable()
	}
}

var meanCWTSink float64

// BenchmarkMeanCWT is the per-edge cost on the same table: one mean CWT
// over the 1024-cycle period per operation.
func BenchmarkMeanCWT(b *testing.B) {
	tab := NewUniform(100, 10, 1^0xA5, 0).OffsetTable()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		meanCWTSink += tab.MeanCWT(i%100, (i*7+1)%100)
	}
}

func TestStaggered(t *testing.T) {
	s := NewStaggered(20, 10, 7)
	if s.Period() != 10 || s.Rate() != 10 || s.N() != 20 {
		t.Fatalf("metadata: period=%d rate=%d n=%d", s.Period(), s.Rate(), s.N())
	}
	// Exactly one wake slot per cycle, at a constant phase.
	for u := 0; u < 20; u++ {
		first := s.NextAwake(u, 0)
		for c := 1; c < 5; c++ {
			if got := s.NextAwake(u, c*10); got != first+c*10 {
				t.Fatalf("node %d phase drifts: %d vs %d", u, got, first+c*10)
			}
		}
	}
	// Phases differ across nodes (with overwhelming probability for n=20, r=10).
	allSame := true
	p0 := s.NextAwake(0, 0)
	for u := 1; u < 20; u++ {
		if s.NextAwake(u, 0) != p0 {
			allSame = false
			break
		}
	}
	if allSame {
		t.Fatal("every node drew the same phase; seeding broken")
	}
	// Determinism.
	again := NewStaggered(20, 10, 7)
	for u := 0; u < 20; u++ {
		if s.NextAwake(u, 0) != again.NextAwake(u, 0) {
			t.Fatal("NewStaggered not deterministic")
		}
	}
}

func TestAlwaysAwakeAndFixedCWT(t *testing.T) {
	if w := (AlwaysAwake{Nodes: 60}); w.Rate() != 1 {
		t.Fatal("AlwaysAwake rate")
	}
	fixed := NewFixed(10, 10, [][]int{{2}})
	if CWT(fixed, 0, 0, 2) != 10 {
		t.Fatal("CWT of a fixed schedule")
	}
}
