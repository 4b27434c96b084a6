package sim

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"mlbs/internal/bitset"
	"mlbs/internal/core"
	"mlbs/internal/dutycycle"
	"mlbs/internal/graph"
	"mlbs/internal/interference"
	"mlbs/internal/rng"
	"mlbs/internal/topology"
)

// refReplayer is the replayer's slot physics as it stood before the
// receiver set: the receivers of a slot are gathered into a touched list
// and sorted, and the quiet charge walks every node each slot. It keeps
// Replayer's buffers and shared helpers (reset, filterAble, arrivedAt,
// finish) and overrides the execution loops and the three per-slot
// methods, so TestReplayerMatchesReference can hold the production
// physics to it field for field.
type refReplayer struct{ Replayer }

func (r *refReplayer) lossyReplay(in core.Instance, sched *core.Schedule, loss LossFunc) (*LossyReport, error) {
	r.loss = loss
	rep, err := r.replay(in, sched)
	r.loss = nil
	if err != nil {
		return nil, err
	}
	return &LossyReport{Report: *rep, LostFrames: r.lost}, nil
}

func (r *refReplayer) lossyRun(in core.Instance, policy PolicyFunc, horizon int, loss LossFunc) (*LossyReport, *core.Schedule, error) {
	r.loss = loss
	rep, sched, err := r.run(in, policy, horizon, loss != nil)
	r.loss = nil
	if err != nil {
		return nil, nil, err
	}
	return &LossyReport{Report: *rep, LostFrames: r.lost}, sched, nil
}

func (r *refReplayer) transmit(t int, senders []graph.NodeID) error {
	for _, u := range senders {
		if u < 0 || u >= r.n {
			return errOut(u, t)
		}
		if !r.w.Has(u) {
			return errUncovered(u, t)
		}
		if !r.in.Wake.Awake(u, t) {
			return errAsleep(u, t)
		}
	}
	r.touched = r.touched[:0]
	for _, u := range senders {
		r.report.Usage.Transmissions++
		for _, v := range r.in.G.Adj(u) {
			if r.loss != nil && r.loss(t, u, v) {
				r.lost++
				continue
			}
			if r.nFrames[v] == 0 {
				r.touched = append(r.touched, v)
			}
			r.nFrames[v]++
		}
	}
	sort.Ints(r.touched)
	r.newly = r.newly[:0]
	solo := r.oracle.SoloDecodes()
	for _, v := range r.touched {
		k := r.nFrames[v]
		r.nFrames[v] = 0
		if r.w.Has(v) {
			r.report.Usage.Receptions++
			continue
		}
		decoded := k == 1
		if !solo {
			all := senders
			if r.loss != nil {
				all = r.arrivedAt(t, v, senders)
			}
			_, decoded = r.oracle.Outcome(v, all)
		}
		if decoded {
			r.report.Usage.Receptions++
			r.newly = append(r.newly, v)
			continue
		}
		start := len(r.collArena)
		for _, u := range senders {
			if r.in.G.Nbr(v).Has(u) && (r.loss == nil || !r.loss(t, u, v)) {
				r.collArena = append(r.collArena, u)
			}
		}
		cs := r.collArena[start:len(r.collArena):len(r.collArena)]
		sort.Ints(cs)
		r.report.Usage.Collisions++
		r.colls = append(r.colls, Collision{T: t, Receiver: v, Senders: cs})
	}
	for _, v := range r.newly {
		r.w.Add(v)
		r.covered[v] = t
	}
	return nil
}

func (r *refReplayer) accountQuiet(t int, senders []graph.NodeID) {
	for _, u := range senders {
		r.isTx[u] = true
	}
	for u := 0; u < r.n; u++ {
		if r.isTx[u] {
			continue
		}
		r.report.Usage.IdleSlots++
		if !r.in.Wake.Awake(u, t) {
			r.report.Usage.SleepSlots++
		}
	}
	for _, u := range senders {
		r.isTx[u] = false
	}
}

func (r *refReplayer) replay(in core.Instance, sched *core.Schedule) (*Report, error) {
	r.reset(in, sched.Start)
	k := in.K()
	prevT, prevCh := sched.Start-1, int(^uint(0)>>1)
	for _, adv := range sched.Advances {
		if adv.T < prevT || (adv.T == prevT && adv.Channel <= prevCh) {
			return nil, errOrder(adv.T)
		}
		if adv.Channel < 0 || adv.Channel >= k {
			return nil, fmt.Errorf("sim: advance at t=%d uses channel %d, instance has %d", adv.T, adv.Channel, k)
		}
		prevT, prevCh = adv.T, adv.Channel
	}
	maxT := sched.Start - 1
	if len(sched.Advances) > 0 {
		maxT = sched.Advances[len(sched.Advances)-1].T
	}
	ai := 0
	for t := sched.Start; t <= maxT; t++ {
		start := ai
		for ai < len(sched.Advances) && sched.Advances[ai].T == t {
			ai++
		}
		group := sched.Advances[start:ai]
		var senders []graph.NodeID
		switch {
		case len(group) == 1 && group[0].Channel == 0:
			senders = group[0].Senders
			firing := senders
			if r.loss != nil {
				var err error
				if firing, err = r.filterAble(t, senders); err != nil {
					return nil, err
				}
			}
			if len(firing) > 0 {
				if err := r.transmit(t, firing); err != nil {
					return nil, err
				}
			}
		case len(group) > 0:
			var err error
			if senders, err = r.transmitGroup(t, group); err != nil {
				return nil, err
			}
		}
		r.accountQuiet(t, senders)
	}
	return r.finish(sched.Start, maxT), nil
}

func (r *refReplayer) transmitGroup(t int, group []core.Advance) ([]graph.NodeID, error) {
	r.slotTx = r.slotTx[:0]
	for gi := range group {
		for _, u := range group[gi].Senders {
			if u < 0 || u >= r.n {
				r.clearTxMarks()
				return nil, errOut(u, t)
			}
			if r.isTx[u] {
				r.clearTxMarks()
				return nil, fmt.Errorf("sim: node %d transmits on two channels at t=%d", u, t)
			}
			r.isTx[u] = true
			r.slotTx = append(r.slotTx, u)
		}
	}
	r.clearTxMarks()

	r.slotNodes = r.slotNodes[:0]
	r.newly = r.newly[:0]
	solo := r.oracle.SoloDecodes()
	for gi := range group {
		adv := &group[gi]
		firing := adv.Senders
		if r.loss != nil {
			var err error
			if firing, err = r.filterAble(t, adv.Senders); err != nil {
				r.clearSlotFlags()
				return nil, err
			}
		} else {
			for _, u := range firing {
				if !r.w.Has(u) {
					r.clearSlotFlags()
					return nil, errUncovered(u, t)
				}
			}
		}
		for _, u := range firing {
			if !r.in.Wake.Awake(u, t) {
				r.clearSlotFlags()
				return nil, errAsleep(u, t)
			}
		}
		r.touched = r.touched[:0]
		for _, u := range firing {
			r.report.Usage.Transmissions++
			for _, v := range r.in.G.Adj(u) {
				if r.loss != nil && r.loss(t, u, v) {
					r.lost++
					continue
				}
				if r.nFrames[v] == 0 {
					r.touched = append(r.touched, v)
				}
				r.nFrames[v]++
			}
		}
		sort.Ints(r.touched)
		for _, v := range r.touched {
			k := r.nFrames[v]
			r.nFrames[v] = 0
			if r.slotFlag[v] == 0 {
				r.slotNodes = append(r.slotNodes, v)
			}
			if r.w.Has(v) {
				if r.slotFlag[v]&flagRec == 0 {
					r.slotFlag[v] |= flagRec
					r.report.Usage.Receptions++
				}
				continue
			}
			decoded := k == 1
			if !solo {
				all := firing
				if r.loss != nil {
					all = r.arrivedAt(t, v, firing)
				}
				_, decoded = r.oracle.Outcome(v, all)
			}
			if !decoded {
				start := len(r.collArena)
				for _, u := range firing {
					if r.in.G.Nbr(v).Has(u) && (r.loss == nil || !r.loss(t, u, v)) {
						r.collArena = append(r.collArena, u)
					}
				}
				cs := r.collArena[start:len(r.collArena):len(r.collArena)]
				sort.Ints(cs)
				r.report.Usage.Collisions++
				r.colls = append(r.colls, Collision{T: t, Receiver: v, Senders: cs, Channel: adv.Channel})
				continue
			}
			if r.slotFlag[v]&flagRec == 0 {
				r.slotFlag[v] |= flagRec
				r.report.Usage.Receptions++
			}
			if r.slotFlag[v]&flagNew == 0 {
				r.slotFlag[v] |= flagNew
				r.newly = append(r.newly, v)
			}
		}
	}
	sort.Ints(r.newly)
	for _, v := range r.newly {
		r.w.Add(v)
		r.covered[v] = t
	}
	r.clearSlotFlags()
	return r.slotTx, nil
}

func (r *refReplayer) run(in core.Instance, policy PolicyFunc, horizon int, sortSenders bool) (*Report, *core.Schedule, error) {
	r.reset(in, in.Start)
	sched := &core.Schedule{Source: in.Source, Start: in.Start}
	end := in.Start - 1
	for t := in.Start; r.w.Len() < r.n && t <= horizon; t++ {
		senders := policy(r.w, t)
		if len(senders) > 0 {
			if err := r.transmit(t, senders); err != nil {
				return nil, nil, err
			}
			end = t
			recorded := append([]graph.NodeID(nil), senders...)
			if sortSenders {
				sort.Ints(recorded)
			}
			sched.Advances = append(sched.Advances, core.Advance{
				T:       t,
				Senders: recorded,
				Covered: append([]graph.NodeID(nil), r.newly...),
			})
		}
		r.accountQuiet(t, senders)
	}
	return r.finish(in.Start, end), sched, nil
}

// equivCase is one instance of the equivalence matrix with its planned
// schedule.
type equivCase struct {
	name  string
	in    core.Instance
	sched *core.Schedule
}

// equivCases plans the paper deployment at n 30/150/300 on the
// synchronous system and the r=10 duty cycle (and, at n=30, a period-1
// staggered schedule), under K 1/2/4 and the graph
// and SINR oracles (SINR at K=1 only, which keeps the n=300 planning
// cheap while every oracle path of transmit and transmitGroup is reached
// at some size).
func equivCases(t *testing.T) []equivCase {
	t.Helper()
	sinr := &interference.SINRParams{Alpha: 3, Beta: 1}
	var cases []equivCase
	for _, n := range []int{30, 150, 300} {
		d, err := topology.Generate(topology.PaperConfig(n), 3)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		systems := []struct {
			name string
			in   core.Instance
		}{
			{"sync", core.Sync(d.G, d.Source)},
			{"duty-r10", core.Async(d.G, d.Source, dutycycle.NewUniform(d.G.N(), 10, 9, 0), 0)},
			// Period 1 like sync, but asleep at t < 0 (AlwaysAwake is not).
			{"phase-r1", core.Async(d.G, d.Source, dutycycle.NewStaggered(d.G.N(), 1, 9), 0)},
		}
		for _, sys := range systems {
			if sys.name == "phase-r1" && n > 30 {
				continue
			}
			for _, k := range []int{1, 2, 4} {
				for _, oracle := range []string{"graph", "sinr"} {
					if oracle == "sinr" && k > 1 && n > 150 {
						continue
					}
					in := sys.in
					in.Channels = k
					if oracle == "sinr" {
						in.SINR = sinr
					}
					name := fmt.Sprintf("n%d/%s/k%d/%s", n, sys.name, k, oracle)
					res, err := core.NewGOPT(0).Schedule(in)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					cases = append(cases, equivCase{name, in, res.Schedule})
				}
			}
		}
	}
	return cases
}

// tamper returns a copy of sched with extra senders grafted on, so
// collisions occur and covered nodes hear duplicates. With coveredAt nil
// each advance gains, with probability 1/3, one random node, and every
// fourth advance also takes the next one's senders and every fifth
// repeats its first sender (a single-channel slot fires it twice, a
// multi-channel one rejects it): on the ideal channel
// many such replays abort on an uncovered, asleep or twice-scheduled
// sender. With coveredAt (the planned replay's) the grafts are nodes that
// the plan covered before the slot, awake and not yet sending in it, so
// most replays run to the end.
func tamper(src *rng.Source, in core.Instance, sched *core.Schedule, coveredAt []int) *core.Schedule {
	n := in.G.N()
	out := &core.Schedule{Source: sched.Source, Start: sched.Start}
	sending := map[[2]int]bool{} // (node, slot) pairs already scheduled
	for _, adv := range sched.Advances {
		for _, u := range adv.Senders {
			sending[[2]int{u, adv.T}] = true
		}
	}
	eligible := func(v graph.NodeID, t int) bool {
		return coveredAt == nil || (coveredAt[v] < t && in.Wake.Awake(v, t) && !sending[[2]int{v, t}])
	}
	for i, adv := range sched.Advances {
		senders := append([]graph.NodeID(nil), adv.Senders...)
		if src.Intn(3) == 0 {
			if v := src.Intn(n); eligible(v, adv.T) {
				senders = append(senders, v)
				sending[[2]int{v, adv.T}] = true
			}
		}
		if coveredAt == nil && i%5 == 0 {
			senders = append(senders, senders[0])
		}
		if i%4 == 0 && i+1 < len(sched.Advances) {
			for _, v := range sched.Advances[i+1].Senders {
				if eligible(v, adv.T) {
					senders = append(senders, v)
					sending[[2]int{v, adv.T}] = true
				}
			}
		}
		out.Advances = append(out.Advances, core.Advance{T: adv.T, Channel: adv.Channel, Senders: senders})
	}
	return out
}

// coinPolicy fires each covered, awake node that still has an uncovered
// neighbor with probability 1/2, keyed by (seed, node, slot): a pure
// online policy whose concurrent senders collide and, on a lossy
// channel, retransmit.
func coinPolicy(in core.Instance, seed uint64) PolicyFunc {
	var buf []graph.NodeID
	return func(w bitset.Set, t int) []graph.NodeID {
		buf = buf[:0]
		for u := 0; u < in.G.N(); u++ {
			if w.Has(u) && in.Wake.Awake(u, t) && in.G.Nbr(u).AnyDifference(w) &&
				rng.Mix64(seed^uint64(u)<<20^uint64(t))&1 == 0 {
				buf = append(buf, u)
			}
		}
		return buf
	}
}

// sameOutcome fails unless both executions agree on the error, or on
// every report field: CoveredAt, Usage, the Collisions with their order
// and sender lists, End, Slots, Completed and LostFrames.
func sameOutcome(t *testing.T, name string, want *LossyReport, wantErr error, got *LossyReport, gotErr error) {
	t.Helper()
	if (wantErr == nil) != (gotErr == nil) || (wantErr != nil && wantErr.Error() != gotErr.Error()) {
		t.Fatalf("%s: err = %v, reference %v", name, gotErr, wantErr)
	}
	if wantErr != nil {
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: report differs from the reference\n got  %+v\n want %+v", name, got, want)
	}
}

// assertClear fails unless the replayer's per-slot state is clear: no
// receiver bit, frame count or transmit mark left from the last slot.
func assertClear(t *testing.T, name string, r *Replayer) {
	t.Helper()
	for _, w := range r.recv {
		if w != 0 {
			t.Fatalf("%s: receiver set left dirty: %v", name, r.recv)
		}
	}
	for v := 0; v < r.n; v++ {
		if r.nFrames[v] != 0 || r.isTx[v] || r.slotFlag[v] != 0 {
			t.Fatalf("%s: node %d per-slot state left set", name, v)
		}
	}
}

// TestReplayerMatchesReference holds the replayer's slot physics (the
// receiver set walked in ID order, the quiet charge without a per-node
// walk on period-1 schedules) to the sort-based reference above: planned
// and tampered schedules over loss rates 0, 0.05 and 0.3, and an online
// policy, through Replay, LossyReplayer.Replay, RunPolicy and
// LossyReplayer.RunPolicy, all on reused replayers.
func TestReplayerMatchesReference(t *testing.T) {
	src := rng.New(17)
	ideal, lossy, ref := NewReplayer(), NewLossyReplayer(), &refReplayer{}
	for _, c := range equivCases(t) {
		planned, err := Replay(c.in, c.sched)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		scheds := map[string]*core.Schedule{
			"planned":   c.sched,
			"tampered":  tamper(src, c.in, c.sched, nil),
			"grafted-a": tamper(src, c.in, c.sched, planned.CoveredAt),
			"grafted-b": tamper(src, c.in, c.sched, planned.CoveredAt),
			// Starts three slots early, so the quiet charge runs at t < 0,
			// where every wake schedule has every node asleep.
			"early": {Source: c.sched.Source, Start: -2, Advances: c.sched.Advances},
		}
		for sname, sched := range scheds {
			name := c.name + "/" + sname
			want, wantErr := ref.lossyReplay(c.in, sched, nil)
			var got *LossyReport
			rep, gotErr := ideal.Replay(c.in, sched)
			if gotErr == nil {
				got = &LossyReport{Report: *rep}
			}
			sameOutcome(t, name+"/ideal", want, wantErr, got, gotErr)
			assertClear(t, name+"/ideal", ideal)
			if sname == "planned" && (!rep.Completed || len(rep.Collisions) != 0) {
				t.Fatalf("%s: planned schedule does not replay clean", name)
			}
			for _, rate := range []float64{0, 0.05, 0.3} {
				for seed := uint64(1); seed <= 2; seed++ {
					lname := fmt.Sprintf("%s/loss%g/seed%d", name, rate, seed)
					loss := IIDLoss(rate, seed)
					want, wantErr := ref.lossyReplay(c.in, sched, loss)
					got, gotErr := lossy.Replay(c.in, sched, loss)
					sameOutcome(t, lname, want, wantErr, got, gotErr)
					assertClear(t, lname, &lossy.r)
				}
			}
		}
		if c.in.K() > 1 {
			continue // online policies fire on channel 0 only
		}
		horizon := c.in.Start + 8*c.sched.Latency()
		for _, rate := range []float64{0, 0.05, 0.3} {
			name := fmt.Sprintf("%s/policy/loss%g", c.name, rate)
			loss := IIDLoss(rate, 5)
			want, wantSched, wantErr := ref.lossyRun(c.in, coinPolicy(c.in, 3), horizon, loss)
			got, gotSched, gotErr := lossy.RunPolicy(c.in, coinPolicy(c.in, 3), horizon, loss)
			sameOutcome(t, name, want, wantErr, got, gotErr)
			if gotErr == nil && !reflect.DeepEqual(gotSched, wantSched) {
				t.Fatalf("%s: recorded schedule differs from the reference", name)
			}
		}
		want, wantSched, wantErr := ref.lossyRun(c.in, coinPolicy(c.in, 4), horizon, nil)
		rep, gotSched, gotErr := ideal.RunPolicy(c.in, coinPolicy(c.in, 4), horizon)
		var got *LossyReport
		if gotErr == nil {
			got = &LossyReport{Report: *rep}
		}
		sameOutcome(t, c.name+"/policy/ideal", want, wantErr, got, gotErr)
		if gotErr == nil && !reflect.DeepEqual(gotSched, wantSched) {
			t.Fatalf("%s/policy/ideal: recorded schedule differs from the reference", c.name)
		}
	}
}

// TestReplayerClearAfterMidSlotError aborts replays inside a
// multi-channel slot, after channel 0's receivers were tallied (an
// uncovered sender on the ideal channel, an asleep one on the lossy), and
// checks that the per-slot state is clear and that the reused replayer
// then matches a fresh reference.
func TestReplayerClearAfterMidSlotError(t *testing.T) {
	d, err := topology.Generate(topology.PaperConfig(150), 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, sys := range []string{"sync", "duty-r10"} {
		in := core.Sync(d.G, d.Source)
		if sys == "duty-r10" {
			in = core.Async(d.G, d.Source, dutycycle.NewUniform(d.G.N(), 10, 9, 0), 0)
		}
		in.Channels = 2
		res, err := core.NewGOPT(0).Schedule(in)
		if err != nil {
			t.Fatal(err)
		}
		good := res.Schedule
		clean, err := Replay(in, good)
		if err != nil {
			t.Fatal(err)
		}
		// The first two-channel slot that admits one gets a bad sender on
		// its channel-1 advance: on sync a node not yet covered, on the
		// duty cycle the source at a slot it sleeps through (it always
		// holds the message, so the lossy replay cannot filter it out).
		bad := &core.Schedule{Source: good.Source, Start: good.Start}
		for _, adv := range good.Advances {
			adv.Senders = append([]graph.NodeID(nil), adv.Senders...)
			bad.Advances = append(bad.Advances, adv)
		}
		intruder := func(tSlot int) graph.NodeID {
			for v := 0; v < in.G.N(); v++ {
				if (sys == "sync" && clean.CoveredAt[v] >= tSlot) ||
					(sys != "sync" && v == in.Source && !in.Wake.Awake(v, tSlot)) {
					return v
				}
			}
			return -1
		}
		tampered := false
		for i := 1; i < len(bad.Advances) && !tampered; i++ {
			adv := &bad.Advances[i]
			if adv.Channel == 0 || bad.Advances[i-1].T != adv.T {
				continue
			}
			if v := intruder(adv.T); v >= 0 {
				adv.Senders = append(adv.Senders, v)
				tampered = true
			}
		}
		if !tampered {
			t.Fatalf("%s: no two-channel slot to tamper", sys)
		}
		ideal, lossy := NewReplayer(), NewLossyReplayer()
		if _, err := ideal.Replay(in, bad); err == nil {
			t.Fatalf("%s: tampered schedule replayed without error", sys)
		}
		assertClear(t, sys+"/ideal", ideal)
		if sys != "sync" {
			if _, err := lossy.Replay(in, bad, IIDLoss(0.05, 1)); err == nil {
				t.Fatalf("%s: tampered schedule replayed lossy without error", sys)
			}
			assertClear(t, sys+"/lossy", &lossy.r)
		}
		for _, s := range []*core.Schedule{good, tamper(rng.New(2), in, good, clean.CoveredAt)} {
			want, wantErr := (&refReplayer{}).lossyReplay(in, s, nil)
			rep, gotErr := ideal.Replay(in, s)
			var got *LossyReport
			if gotErr == nil {
				got = &LossyReport{Report: *rep}
			}
			sameOutcome(t, sys+"/ideal/reused", want, wantErr, got, gotErr)
			loss := IIDLoss(0.05, 1)
			want, wantErr = (&refReplayer{}).lossyReplay(in, s, loss)
			lgot, lgotErr := lossy.Replay(in, s, loss)
			sameOutcome(t, sys+"/lossy/reused", want, wantErr, lgot, lgotErr)
		}
	}
}
