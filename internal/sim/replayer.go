package sim

import (
	"fmt"
	"math/bits"
	"sort"

	"mlbs/internal/bitset"
	"mlbs/internal/core"
	"mlbs/internal/graph"
	"mlbs/internal/interference"
)

func errOut(u graph.NodeID, t int) error {
	return fmt.Errorf("sim: sender %d out of range at t=%d", u, t)
}

func errUncovered(u graph.NodeID, t int) error {
	return fmt.Errorf("sim: node %d transmitted at t=%d without holding the message", u, t)
}

func errAsleep(u graph.NodeID, t int) error {
	return fmt.Errorf("sim: node %d transmitted at t=%d while its sending channel was off", u, t)
}

func errOrder(t int) error {
	return fmt.Errorf("sim: advances out of order at t=%d", t)
}

func sortedIDs(xs []graph.NodeID) []graph.NodeID {
	cp := append([]graph.NodeID(nil), xs...)
	sort.Ints(cp)
	return cp
}

// Replayer executes schedules and policies against the slot physics with
// every piece of per-execution state held in reusable buffers: coverage
// bitset, per-node frame counters, the receiver set, and the collision
// arena all survive across calls, so a warm Replayer runs a full
// replay without allocating (the discipline the Monte-Carlo reliability
// engine batches thousands of replays on).
//
// Reports returned by a Replayer alias its buffers and stay valid only
// until the next call on the same Replayer. A Replayer is not safe for
// concurrent use; the zero value is ready.
type Replayer struct {
	in   core.Instance
	n    int
	loss LossFunc // nil = ideal channel
	lost int

	w         bitset.Set
	covered   []int
	nFrames   []int32        // per-node frames arriving this slot; kept zeroed between slots
	isTx      []bool         // per-node transmitting-this-slot mark; kept cleared between slots
	recv      bitset.Set     // neighbors of this slot's senders; kept cleared between slots
	touched   []graph.NodeID // receivers that heard ≥1 frame this slot, ascending
	sleepWalk bool           // the wake schedule can put a node to sleep (Period > 1)
	newly     []graph.NodeID // receivers newly covered this slot
	able      []graph.NodeID // lossy replay: senders that actually hold the message
	collArena []graph.NodeID // backing storage for Collision.Senders lists
	colls     []Collision
	report    Report

	// Multi-channel slot state (see transmitGroup); kept cleared between
	// slots via slotNodes.
	slotFlag  []uint8        // per-node flagRec/flagNew marks for the current slot
	slotNodes []graph.NodeID // nodes with a nonzero slotFlag
	slotTx    []graph.NodeID // every scheduled sender of the current slot, all channels

	// Interference oracle of the bound instance. The graph backend keeps
	// the frame-counting fast path (SoloDecodes); the SINR backend resolves
	// each receiver through Oracle.Outcome. ib owns both backends, so
	// rebinding in reset never allocates.
	ib      interference.Binder
	oracle  interference.Oracle
	arrived []graph.NodeID // lossy SINR: senders whose signal reaches the receiver
}

// slotFlag bits.
const (
	flagRec uint8 = 1 << iota // a reception was tallied for this node this slot
	flagNew                   // node was newly covered by an earlier channel this slot
)

// NewReplayer returns a ready ideal-channel replayer.
func NewReplayer() *Replayer { return &Replayer{} }

// reset prepares the buffers for one execution of in starting at start.
func (r *Replayer) reset(in core.Instance, start int) {
	n := in.G.N()
	r.in, r.n, r.lost = in, n, 0
	if len(r.covered) < n {
		r.covered = make([]int, n)
		r.nFrames = make([]int32, n)
		r.isTx = make([]bool, n)
		r.slotFlag = make([]uint8, n)
	}
	if r.w.Capacity() < n {
		r.w = bitset.New(n)
	} else {
		r.w.Clear()
	}
	if words := bitset.WordsFor(n); cap(r.recv) < words {
		r.recv = bitset.New(n)
	} else {
		r.recv = r.recv[:words]
	}
	r.sleepWalk = in.Wake.Period() > 1
	cov := r.covered[:n]
	for i := range cov {
		cov[i] = -1
	}
	r.collArena = r.collArena[:0]
	r.colls = r.colls[:0]
	r.report = Report{}
	r.oracle = in.Oracle(&r.ib)
	r.w.Add(in.Source)
	cov[in.Source] = start - 1
	for _, u := range in.PreCovered {
		if !r.w.Has(u) {
			r.w.Add(u)
			cov[u] = start - 1
		}
	}
}

// transmit applies the physics of one slot: every sender's frame reaches
// all neighbors (minus per-link losses on a lossy channel); uncovered
// receivers hearing exactly one frame become covered, hearing more records
// a collision. Covered receivers tally one reception for the slot
// (duplicates are discarded by the MAC). The newly covered nodes are left
// in r.newly, sorted ascending. The outcome is independent of the senders'
// iteration order: receivers are processed in ascending ID order and
// collision sender lists are sorted.
//
//mlbs:hotpath -- per-slot physics; the Monte-Carlo engine batches thousands of warm replays
func (r *Replayer) transmit(t int, senders []graph.NodeID) error {
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
	for _, u := range senders {
		r.report.Usage.Transmissions++
		r.recv.UnionWith(r.in.G.Nbr(u))
		for _, v := range r.in.G.Adj(u) {
			if r.loss != nil && r.loss(t, u, v) {
				r.lost++
				continue
			}
			r.nFrames[v]++
		}
	}
	r.drainReceivers()
	r.newly = r.newly[:0]
	solo := r.oracle.SoloDecodes()
	for _, v := range r.touched {
		k := r.nFrames[v]
		r.nFrames[v] = 0
		if r.w.Has(v) {
			r.report.Usage.Receptions++ // duplicate, discarded above MAC
			continue
		}
		decoded := k == 1
		if !solo {
			// Physical model: every concurrent sender whose signal survives
			// the channel contributes interference (non-neighbors included);
			// the oracle resolves capture.
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
		// Collision: re-derive the interfering senders (adjacency is
		// symmetric and the loss function is pure, so this reproduces
		// exactly the frames that arrived).
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

// drainReceivers moves the slot's receivers into r.touched in ascending ID
// order: the members of the receiver set that some frame reached (a node
// whose every frame was lost has nFrames 0). The set is left clear.
//
//mlbs:hotpath -- per-slot physics, O(n/64) words
func (r *Replayer) drainReceivers() {
	r.touched = r.touched[:0]
	for wi, word := range r.recv {
		if word == 0 {
			continue
		}
		r.recv[wi] = 0
		for ; word != 0; word &= word - 1 {
			if v := wi*64 + bits.TrailingZeros64(word); r.nFrames[v] != 0 {
				r.touched = append(r.touched, v)
			}
		}
	}
}

// accountQuiet charges idle/sleep slots for one elapsed slot: transmitters
// were already charged; every other node spends the slot listening, and
// additionally its sending circuitry is asleep unless its wake schedule has
// it on. A period-1 schedule has every node on at every slot t ≥ 0, so the
// per-node sleep walk runs only for duty-cycled schedules.
//
//mlbs:hotpath -- runs every replayed slot
func (r *Replayer) accountQuiet(t int, senders []graph.NodeID) {
	tx := 0
	for _, u := range senders {
		if !r.isTx[u] {
			r.isTx[u] = true
			tx++
		}
	}
	r.report.Usage.IdleSlots += r.n - tx
	if r.sleepWalk || t < 0 {
		for u := 0; u < r.n; u++ {
			if !r.isTx[u] && !r.in.Wake.Awake(u, t) {
				r.report.Usage.SleepSlots++
			}
		}
	}
	for _, u := range senders {
		r.isTx[u] = false
	}
}

// arrivedAt narrows senders to those whose signal survives the lossy
// channel toward v — the physical-model analogue of the per-link frame
// drop in transmit. Only called with r.loss non-nil; the ideal channel
// passes the sender list through untouched.
//
//mlbs:hotpath -- per-receiver inner loop of lossy SINR replays
func (r *Replayer) arrivedAt(t int, v graph.NodeID, senders []graph.NodeID) []graph.NodeID {
	r.arrived = r.arrived[:0]
	for _, u := range senders {
		if !r.loss(t, u, v) {
			r.arrived = append(r.arrived, u)
		}
	}
	return r.arrived
}

// filterAble narrows senders to those that physically hold the message —
// in a lossy replay, relays whose own reception was lost stay silent
// instead of aborting the execution.
//
//mlbs:hotpath -- runs every lossy slot
func (r *Replayer) filterAble(t int, senders []graph.NodeID) ([]graph.NodeID, error) {
	r.able = r.able[:0]
	for _, u := range senders {
		if u < 0 || u >= r.n {
			return nil, errOut(u, t)
		}
		if r.w.Has(u) {
			r.able = append(r.able, u)
		}
	}
	return r.able, nil
}

func (r *Replayer) finish(start, end int) *Report {
	rep := &r.report
	rep.CoveredAt = r.covered[:r.n]
	if len(r.colls) > 0 {
		rep.Collisions = r.colls
	}
	rep.End = end
	rep.Slots = end - start + 1
	if rep.Slots < 0 {
		rep.Slots = 0
	}
	rep.Completed = r.w.Len() == r.n && len(r.colls) == 0
	return rep
}

// Replay executes a precomputed schedule on the ideal channel; see the
// package-level Replay for semantics. The report aliases the Replayer's
// buffers and is valid until its next call.
func (r *Replayer) Replay(in core.Instance, sched *core.Schedule) (*Report, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	r.loss = nil
	return r.replay(in, sched)
}

// replay is the shared schedule-execution loop. r.loss selects the loss
// behavior; multi-channel slots (several advances sharing a T on distinct
// ascending channels, legal only when the instance has K > 1 channels)
// route through transmitGroup.
//
//mlbs:hotpath -- the shared execution loop of every replay
func (r *Replayer) replay(in core.Instance, sched *core.Schedule) (*Report, error) {
	r.reset(in, sched.Start)
	k := in.K()
	prevT, prevCh := sched.Start-1, int(^uint(0)>>1)
	for _, adv := range sched.Advances {
		if adv.T < prevT || (adv.T == prevT && adv.Channel <= prevCh) {
			return nil, errOrder(adv.T)
		}
		if adv.Channel < 0 || adv.Channel >= k {
			//mlbs:allow hotalloc -- malformed-schedule error path, aborts the replay
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
			// Single-channel slot: the classic per-slot physics.
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

// transmitGroup applies the physics of one multi-channel slot: every
// advance's senders fire on the advance's own frequency channel, frames
// interfere only within a channel, and an uncovered receiver becomes
// covered when some channel delivers it exactly one frame. Collisions are
// recorded per (receiver, channel); a receiver rescued by another channel
// still reports the collision — a conflict-aware schedule must not produce
// any. Returns the slot's scheduled senders across all channels (the
// accountQuiet input).
//
//mlbs:hotpath -- multi-channel per-slot physics, same warm-replay discipline as transmit
func (r *Replayer) transmitGroup(t int, group []core.Advance) ([]graph.NodeID, error) {
	// One radio per node: a sender may appear on at most one channel. The
	// isTx marks are cleared on every exit — error paths included — so a
	// failed replay never corrupts a reused Replayer.
	r.slotTx = r.slotTx[:0]
	for gi := range group {
		for _, u := range group[gi].Senders {
			if u < 0 || u >= r.n {
				r.clearTxMarks()
				return nil, errOut(u, t)
			}
			if r.isTx[u] {
				r.clearTxMarks()
				//mlbs:allow hotalloc -- malformed-schedule error path, aborts the replay
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
		for _, u := range firing {
			r.report.Usage.Transmissions++
			r.recv.UnionWith(r.in.G.Nbr(u))
			for _, v := range r.in.G.Adj(u) {
				if r.loss != nil && r.loss(t, u, v) {
					r.lost++
					continue
				}
				r.nFrames[v]++
			}
		}
		r.drainReceivers()
		for _, v := range r.touched {
			k := r.nFrames[v]
			r.nFrames[v] = 0
			if r.slotFlag[v] == 0 {
				r.slotNodes = append(r.slotNodes, v)
			}
			if r.w.Has(v) {
				// Covered before the slot: one duplicate reception is
				// tallied per slot, like the single-channel MAC discard.
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
				// Same-channel collision at an uncovered node; re-derive
				// the interfering senders of this channel. Recorded even if
				// a lower channel already rescued v this slot (flagNew):
				// Validate judges every advance against pre-slot coverage,
				// so the replayer's collision flags must match its verdicts.
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

// clearTxMarks clears the isTx marks of the senders recorded in slotTx,
// keeping the slotTx list itself (accountQuiet consumes it).
//
//mlbs:hotpath -- cleanup shared by every transmitGroup exit
func (r *Replayer) clearTxMarks() {
	for _, u := range r.slotTx {
		r.isTx[u] = false
	}
}

// clearSlotFlags zeroes the per-slot reception marks of every node
// touched so far — the cleanup all transmitGroup exits share.
//
//mlbs:hotpath -- cleanup shared by every transmitGroup exit
func (r *Replayer) clearSlotFlags() {
	for _, v := range r.slotNodes {
		r.slotFlag[v] = 0
	}
}

// RunPolicy drives an online policy against the ideal physics; see the
// package-level RunPolicy. The report aliases the Replayer's buffers.
func (r *Replayer) RunPolicy(in core.Instance, policy PolicyFunc, horizon int) (*Report, *core.Schedule, error) {
	if err := in.Validate(); err != nil {
		return nil, nil, err
	}
	if horizon <= 0 {
		horizon = in.Start + in.G.N()*(in.Wake.Period()+1) + in.Wake.Period()
	}
	r.loss = nil
	return r.run(in, policy, horizon, false)
}

// run is the shared policy-execution loop. sortSenders selects whether the
// recorded advances normalize sender order (the lossy runner does).
func (r *Replayer) run(in core.Instance, policy PolicyFunc, horizon int, sortSenders bool) (*Report, *core.Schedule, error) {
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

// LossyReplayer is the lossy-channel counterpart of Replayer: the same
// reusable buffers plus the dropped-frame accounting. Reports alias the
// replayer's buffers and stay valid until its next call; not safe for
// concurrent use; the zero value is ready.
type LossyReplayer struct {
	r    Replayer
	lrep LossyReport
}

// NewLossyReplayer returns a ready lossy-channel replayer.
func NewLossyReplayer() *LossyReplayer { return &LossyReplayer{} }

// Replay executes a precomputed schedule over a lossy channel; see the
// package-level ReplayLossy for semantics.
func (l *LossyReplayer) Replay(in core.Instance, sched *core.Schedule, loss LossFunc) (*LossyReport, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	return l.ReplayValidated(in, sched, loss)
}

// ReplayValidated is Replay without the per-call Instance.Validate — the
// entry point for batch engines that validate the instance once and then
// execute thousands of trials against it. The caller guarantees
// in.Validate() == nil.
func (l *LossyReplayer) ReplayValidated(in core.Instance, sched *core.Schedule, loss LossFunc) (*LossyReport, error) {
	if loss == nil {
		loss = NoLoss
	}
	l.r.loss = loss
	rep, err := l.r.replay(in, sched)
	l.r.loss = nil
	if err != nil {
		return nil, err
	}
	l.lrep = LossyReport{Report: *rep, LostFrames: l.r.lost}
	return &l.lrep, nil
}

// RunPolicy drives an online policy over a lossy channel; see the
// package-level RunPolicyLossy for semantics.
func (l *LossyReplayer) RunPolicy(in core.Instance, policy PolicyFunc, horizon int, loss LossFunc) (*LossyReport, *core.Schedule, error) {
	if err := in.Validate(); err != nil {
		return nil, nil, err
	}
	if loss == nil {
		loss = NoLoss
	}
	if horizon <= 0 {
		// Losses stretch executions: allow an order of magnitude beyond
		// the lossless default before declaring failure.
		horizon = in.Start + 10*in.G.N()*(in.Wake.Period()+1) + in.Wake.Period()
	}
	l.r.loss = loss
	rep, sched, err := l.r.run(in, policy, horizon, true)
	l.r.loss = nil
	if err != nil {
		return nil, nil, err
	}
	l.lrep = LossyReport{Report: *rep, LostFrames: l.r.lost}
	return &l.lrep, sched, nil
}
