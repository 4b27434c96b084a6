package core

import (
	"encoding/binary"
	"math/bits"

	"mlbs/internal/graph"
)

// Packed is a Result in the compact form a long-lived store keeps: the
// scalars a reader inspects without the schedule stay in plain fields, and
// everything else — source, start slot, every advance and the per-depth
// search profile — is one byte slice of encoding/binary varints. A cached
// plan costs a few hundred bytes this way instead of the several KB of
// 8-byte node IDs and slice headers a *Result holds. Result rebuilds the
// full value; Pack and Result round-trip every Result exactly, nil versus
// empty slices included (JSON tells them apart as null and []).
//
// A Packed value is immutable once built; copies share its bytes.
type Packed struct {
	// Scheduler, PA, Generation, Exact and Improved are the Result fields;
	// End is Schedule.End().
	Scheduler           string
	PA, End, Generation int
	// The scalar SearchStats fields; Stats.Depths lives in data.
	Expanded, MemoHits, MemoEntries int
	Exact, Improved                 bool
	MovesCapped, BudgetExhausted    bool
	data                            []byte
}

// The byte layout, every integer a varint (signed: zigzag) unless noted:
//
//	ids                 uvarint: total node IDs across all advances
//	source, start
//	advances            list length
//	per advance:        T − previous T (the first from start), channel,
//	                    senders, covered  (ID lists)
//	depths              list length
//	per depth:          expanded, memo hits, bound prunes, budget cuts
//
// A list length is a uvarint holding len+1, with 0 for a nil slice; an ID
// list's entries are deltas from the previous ID (the first from 0), so
// sorted IDs less than 64 apart cost one byte each. Deltas wrap like Go
// integers do, which makes every int value, however large, round-trip
// exactly.

// Pack encodes res, which must carry a non-nil Schedule.
func Pack(res *Result) Packed {
	var size packer
	size.result(res)
	p := packer{b: make([]byte, 0, size.n)}
	p.result(res)
	st := &res.Stats
	return Packed{
		Scheduler:       res.Scheduler,
		data:            p.b,
		PA:              res.PA,
		End:             res.Schedule.End(),
		Generation:      res.Generation,
		Expanded:        st.Expanded,
		MemoHits:        st.MemoHits,
		MemoEntries:     st.MemoEntries,
		Exact:           res.Exact,
		Improved:        res.Improved,
		MovesCapped:     st.MovesCapped,
		BudgetExhausted: st.BudgetExhausted,
	}
}

// packer appends the layout to b, or only counts its length in n when b is
// nil, so Pack allocates the bytes once at their exact size.
type packer struct {
	b []byte
	n int
}

func (p *packer) uint(x uint64) {
	if p.b == nil {
		p.n += (bits.Len64(x|1) + 6) / 7
		return
	}
	p.b = binary.AppendUvarint(p.b, x)
}

func (p *packer) int(x int) {
	// The zigzag mapping binary.AppendVarint uses.
	ux := uint64(x) << 1
	if x < 0 {
		ux = ^ux
	}
	p.uint(ux)
}

// length writes a list length, keeping nil distinct from empty.
func (p *packer) length(l int, isNil bool) {
	if isNil {
		p.uint(0)
		return
	}
	p.uint(uint64(l) + 1)
}

func (p *packer) ids(list []graph.NodeID) {
	p.length(len(list), list == nil)
	prev := 0
	for _, id := range list {
		p.int(id - prev)
		prev = id
	}
}

func (p *packer) result(res *Result) {
	s := res.Schedule
	ids := 0
	for i := range s.Advances {
		ids += len(s.Advances[i].Senders) + len(s.Advances[i].Covered)
	}
	p.uint(uint64(ids))
	p.int(s.Source)
	p.int(s.Start)
	p.length(len(s.Advances), s.Advances == nil)
	prev := s.Start
	for i := range s.Advances {
		a := &s.Advances[i]
		p.int(a.T - prev)
		prev = a.T
		p.int(a.Channel)
		p.ids(a.Senders)
		p.ids(a.Covered)
	}
	d := res.Stats.Depths
	p.length(len(d), d == nil)
	for _, ds := range d {
		p.int(ds.Expanded)
		p.int(ds.MemoHits)
		p.int(ds.BoundPrunes)
		p.int(ds.BudgetCuts)
	}
}

// unpacker reads the layout back.
type unpacker struct {
	b []byte
	i int
}

// uint reads one uvarint. The one-byte case is split from the general one
// so that uint and int inline: most IDs and slot deltas are small.
func (u *unpacker) uint() uint64 {
	x := uint64(u.b[u.i])
	if x < 0x80 {
		u.i++
		return x
	}
	return u.uvarint()
}

func (u *unpacker) uvarint() uint64 {
	x, n := binary.Uvarint(u.b[u.i:])
	u.i += n
	return x
}

// int reads one zigzag varint.
func (u *unpacker) int() int {
	ux := u.uint()
	return int(ux>>1) ^ -int(ux&1)
}

// length reads a list length; ok is false for a nil list.
func (u *unpacker) length() (l int, ok bool) {
	x := u.uint()
	return int(x) - 1, x != 0
}

// ids reads one ID list, carving it from the front of *slab.
func (u *unpacker) ids(slab *[]graph.NodeID) []graph.NodeID {
	l, ok := u.length()
	if !ok {
		return nil
	}
	list := (*slab)[:l:l]
	*slab = (*slab)[l:]
	prev := 0
	for k := range list {
		prev += u.int()
		list[k] = prev
	}
	return list
}

// Result materializes a fresh Result the caller owns. It allocates the
// Result and Schedule together, the advances, one slab for every node ID,
// and the depth profile when there is one.
func (p *Packed) Result() *Result {
	u := unpacker{b: p.data}
	slab := make([]graph.NodeID, u.uint())
	block := &struct {
		res   Result
		sched Schedule
	}{}
	s := &block.sched
	s.Source = u.int()
	s.Start = u.int()
	if l, ok := u.length(); ok {
		s.Advances = make([]Advance, l)
		prev := s.Start
		for i := range s.Advances {
			a := &s.Advances[i]
			prev += u.int()
			a.T = prev
			a.Channel = u.int()
			a.Senders = u.ids(&slab)
			a.Covered = u.ids(&slab)
		}
	}
	res := &block.res
	*res = Result{
		Scheduler: p.Scheduler,
		Schedule:  s,
		PA:        p.PA,
		Exact:     p.Exact,
		Stats: SearchStats{
			Expanded:        p.Expanded,
			MemoHits:        p.MemoHits,
			MemoEntries:     p.MemoEntries,
			MovesCapped:     p.MovesCapped,
			BudgetExhausted: p.BudgetExhausted,
		},
		Generation: p.Generation,
		Improved:   p.Improved,
	}
	if l, ok := u.length(); ok {
		d := make([]DepthStats, l)
		for k := range d {
			ds := &d[k]
			ds.Expanded = u.int()
			ds.MemoHits = u.int()
			ds.BoundPrunes = u.int()
			ds.BudgetCuts = u.int()
		}
		res.Stats.Depths = d
	}
	return res
}
