package graphio

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math"
	"slices"

	"mlbs/internal/core"
	"mlbs/internal/dutycycle"
	"mlbs/internal/geom"
	"mlbs/internal/graph"
	"mlbs/internal/interference"
)

// wakeJSON is the stored form of a dutycycle.Schedule: the constructor
// kind plus exactly the parameters that rebuild it. Pseudo-random
// schedules store their seed, never their expansion, so files stay small
// and the decoded schedule is bit-identical to the encoder's.
type wakeJSON struct {
	Kind   string  `json:"kind"` // always | uniform | fixed | phase
	Nodes  int     `json:"nodes"`
	Rate   int     `json:"rate,omitempty"`
	Cycles int     `json:"cycles,omitempty"` // uniform
	Seed   uint64  `json:"seed,omitempty"`   // uniform
	Period int     `json:"period,omitempty"` // fixed
	Phases []int   `json:"phases,omitempty"` // phase
	Slots  [][]int `json:"slots,omitempty"`  // fixed
}

// instanceJSON is the stored form of a core.Instance. Unit-disk graphs are
// stored as positions + radius; abstract graphs as explicit edge lists.
type instanceJSON struct {
	Version    int       `json:"version"`
	Nodes      int       `json:"nodes"`
	X          []float64 `json:"x,omitempty"`
	Y          []float64 `json:"y,omitempty"`
	Radius     float64   `json:"radius,omitempty"`
	EdgeU      []int     `json:"edge_u,omitempty"`
	EdgeV      []int     `json:"edge_v,omitempty"`
	Source     int       `json:"source"`
	Start      int       `json:"start"`
	PreCovered []int     `json:"pre_covered,omitempty"`
	// Channels is the orthogonal-channel count K; omitted (0) and 1 both
	// mean the paper's single shared channel, so single-channel encodings
	// are byte-identical to the pre-multi-channel wire format.
	Channels int      `json:"channels,omitempty"`
	Wake     wakeJSON `json:"wake"`
	// SINR parameters of the physical interference model. All omitted
	// means the paper's protocol (graph) model, keeping protocol-model
	// encodings byte-identical to the pre-SINR wire format. Presence is
	// detected as any field nonzero/non-empty; β > 0 is then mandatory.
	SINRAlpha float64   `json:"sinr_alpha,omitempty"`
	SINRBeta  float64   `json:"sinr_beta,omitempty"`
	SINRNoise float64   `json:"sinr_noise,omitempty"`
	SINRPower []float64 `json:"sinr_power,omitempty"`
}

func encodeWake(s dutycycle.Schedule) (wakeJSON, error) {
	switch w := s.(type) {
	case dutycycle.AlwaysAwake:
		return wakeJSON{Kind: "always", Nodes: w.Nodes}, nil
	case *dutycycle.Uniform:
		return wakeJSON{Kind: "uniform", Nodes: w.N(), Rate: w.Rate(),
			Cycles: w.Cycles(), Seed: w.MasterSeed()}, nil
	case *dutycycle.Fixed:
		return wakeJSON{Kind: "fixed", Nodes: w.N(), Rate: w.Rate(),
			Period: w.Period(), Slots: w.SlotLists()}, nil
	case *dutycycle.PeriodicPhase:
		return wakeJSON{Kind: "phase", Nodes: w.N(), Rate: w.Rate(),
			Phases: w.Phases()}, nil
	default:
		return wakeJSON{}, fmt.Errorf("graphio: wake schedule %T has no stored form", s)
	}
}

// decodeWake rebuilds a wake schedule from its stored form. Every
// constructor precondition is checked here first: the dutycycle
// constructors panic on malformed inputs (their callers are programs, not
// wires), and a decoder must never panic on arbitrary bytes.
func decodeWake(w wakeJSON) (dutycycle.Schedule, error) {
	if w.Nodes < 0 || w.Nodes > MaxWireNodes {
		return nil, fmt.Errorf("graphio: wake schedule covers %d nodes (limit %d)", w.Nodes, MaxWireNodes)
	}
	switch w.Kind {
	case "always":
		return dutycycle.AlwaysAwake{Nodes: w.Nodes}, nil
	case "uniform":
		if w.Rate < 1 || w.Cycles < 1 {
			return nil, fmt.Errorf("graphio: uniform wake needs rate ≥ 1 and cycles ≥ 1")
		}
		return dutycycle.NewUniform(w.Nodes, w.Rate, w.Seed, w.Cycles), nil
	case "fixed":
		if w.Period < 1 || w.Rate < 1 || len(w.Slots) != w.Nodes {
			return nil, fmt.Errorf("graphio: malformed fixed wake schedule")
		}
		for u, list := range w.Slots {
			if len(list) == 0 {
				return nil, fmt.Errorf("graphio: fixed wake node %d has no wake slots", u)
			}
			prev := -1
			for _, t := range list {
				if t < 0 || t >= w.Period || t <= prev {
					return nil, fmt.Errorf("graphio: fixed wake node %d slots not ascending in [0,%d)", u, w.Period)
				}
				prev = t
			}
		}
		return dutycycle.NewFixed(w.Period, w.Rate, w.Slots), nil
	case "phase":
		if w.Rate < 1 || len(w.Phases) != w.Nodes {
			return nil, fmt.Errorf("graphio: malformed phase wake schedule")
		}
		for u, p := range w.Phases {
			if p < 0 || p >= w.Rate {
				return nil, fmt.Errorf("graphio: phase wake node %d phase %d outside [0,%d)", u, p, w.Rate)
			}
		}
		return dutycycle.NewPeriodicPhase(w.Rate, w.Phases), nil
	default:
		return nil, fmt.Errorf("graphio: unknown wake kind %q", w.Kind)
	}
}

// EncodeInstance serializes a broadcast instance — graph, source, start
// slot, pre-covered set and wake schedule — so the exact problem a
// schedule answers can be shipped to the plan service or archived next to
// its result.
func EncodeInstance(in core.Instance) ([]byte, error) {
	if err := in.Validate(); err != nil {
		return nil, fmt.Errorf("graphio: %w", err)
	}
	wake, err := encodeWake(in.Wake)
	if err != nil {
		return nil, err
	}
	out := instanceJSON{
		Version: currentVersion,
		Nodes:   in.G.N(),
		Source:  in.Source,
		Start:   in.Start,
		Wake:    wake,
	}
	if in.Channels > 1 {
		// 0 and 1 both mean single-channel; canonicalize to the omitted
		// form so equal instances encode equally.
		out.Channels = in.Channels
	}
	if len(in.PreCovered) > 0 {
		out.PreCovered = append([]int(nil), in.PreCovered...)
		slices.Sort(out.PreCovered)
	}
	if in.SINR != nil {
		out.SINRAlpha = in.SINR.Alpha
		out.SINRBeta = in.SINR.Beta
		out.SINRNoise = in.SINR.Noise
		if len(in.SINR.Power) > 0 {
			out.SINRPower = append([]float64(nil), in.SINR.Power...)
		}
	}
	// Positions are always stored: abstract (radius-0) graphs may still
	// carry geometry the E-model reads, and InstanceDigest hashes it —
	// dropping it here would change the digest across a round trip.
	for _, p := range in.G.Positions() {
		out.X = append(out.X, p.X)
		out.Y = append(out.Y, p.Y)
	}
	if in.G.Radius() > 0 {
		out.Radius = in.G.Radius()
	} else {
		for u := 0; u < in.G.N(); u++ {
			for _, v := range in.G.Adj(u) {
				if v > u {
					out.EdgeU = append(out.EdgeU, u)
					out.EdgeV = append(out.EdgeV, v)
				}
			}
		}
	}
	return json.MarshalIndent(out, "", " ")
}

// DecodeInstance rebuilds an instance from EncodeInstance output and
// validates it.
func DecodeInstance(data []byte) (core.Instance, error) {
	var st instanceJSON
	if err := json.Unmarshal(data, &st); err != nil {
		return core.Instance{}, fmt.Errorf("graphio: %w", err)
	}
	if st.Version != currentVersion {
		return core.Instance{}, fmt.Errorf("graphio: unsupported version %d", st.Version)
	}
	if st.Nodes < 1 || st.Nodes > MaxWireNodes {
		return core.Instance{}, fmt.Errorf("graphio: instance has %d nodes (limit %d)", st.Nodes, MaxWireNodes)
	}
	if st.Channels < 0 || st.Channels > core.MaxChannels {
		return core.Instance{}, fmt.Errorf("graphio: channel count %d outside [0,%d]", st.Channels, core.MaxChannels)
	}
	if st.Channels == 1 {
		st.Channels = 0 // canonical single-channel form
	}
	var pos []geom.Point
	if len(st.X) > 0 || len(st.Y) > 0 {
		if len(st.X) != st.Nodes || len(st.Y) != st.Nodes {
			return core.Instance{}, fmt.Errorf("graphio: %d nodes but %d/%d coordinates", st.Nodes, len(st.X), len(st.Y))
		}
		pos = make([]geom.Point, st.Nodes)
		for i := range pos {
			pos[i] = geom.Point{X: st.X[i], Y: st.Y[i]}
		}
	}
	var g *graph.Graph
	switch {
	case st.Radius > 0:
		if pos == nil {
			return core.Instance{}, fmt.Errorf("graphio: UDG instance without coordinates")
		}
		g = graph.FromUDG(pos, st.Radius)
	default:
		if len(st.EdgeU) != len(st.EdgeV) {
			return core.Instance{}, fmt.Errorf("graphio: edge arrays of different lengths")
		}
		b := graph.NewBuilder(st.Nodes, pos)
		for i := range st.EdgeU {
			u, v := st.EdgeU[i], st.EdgeV[i]
			if u < 0 || v < 0 || u >= st.Nodes || v >= st.Nodes || u == v {
				return core.Instance{}, fmt.Errorf("graphio: bad edge {%d,%d}", u, v)
			}
			b.AddEdge(u, v)
		}
		g = b.Build()
	}
	wake, err := decodeWake(st.Wake)
	if err != nil {
		return core.Instance{}, err
	}
	in := core.Instance{
		G:          g,
		Source:     st.Source,
		Start:      st.Start,
		Wake:       wake,
		PreCovered: st.PreCovered,
		Channels:   st.Channels,
	}
	if st.SINRAlpha != 0 || st.SINRBeta != 0 || st.SINRNoise != 0 || len(st.SINRPower) > 0 {
		p := &interference.SINRParams{
			Alpha: st.SINRAlpha,
			Beta:  st.SINRBeta,
			Noise: st.SINRNoise,
			Power: st.SINRPower,
		}
		// Range/finiteness checks run here, before Instance.Validate walks
		// the geometry: a decoder must reject NaN/Inf powers, α < 0, β ≤ 0
		// or negative noise without panicking on arbitrary bytes.
		if err := p.Validate(st.Nodes); err != nil {
			return core.Instance{}, fmt.Errorf("graphio: %w", err)
		}
		in.SINR = p
	}
	if err := in.Validate(); err != nil {
		return core.Instance{}, fmt.Errorf("graphio: %w", err)
	}
	return in, nil
}

// Digest is the content address of a broadcast instance: a SHA-256 over a
// canonical binary encoding of everything a scheduler's answer depends on
// — node positions, radius, the edge set, source, start slot, pre-covered
// nodes, and the wake schedule's parameters. Equal instances digest
// equally across processes and architectures; changing any input changes
// the digest.
type Digest [sha256.Size]byte

// String returns the digest as lowercase hex.
func (d Digest) String() string { return hex.EncodeToString(d[:]) }

// digestMagic versions the canonical encoding; bump it whenever the byte
// layout below changes, so stale cache keys can never alias new ones.
const digestMagic = "mlbs-instance-v1"

// DigestWriter accumulates a canonical binary encoding into a SHA-256 —
// the shared substrate of every content digest in the system (instance
// digests here, delta digests in the churn package). One writer, one
// byte-layout convention: little-endian u64s, length-prefixed strings
// and slices. Writes are buffered and reach the hash in blocks of
// len(buf) bytes, so an instance costs a few dozen hash.Write calls
// instead of one per word; the bytes hashed are the same.
type DigestWriter struct {
	h   hash.Hash
	n   int // bytes pending in buf
	buf [digestBufBytes]byte
}

// digestBufBytes is the DigestWriter's write buffer: eight SHA-256 blocks.
const digestBufBytes = 512

// NewDigestWriter returns a writer seeded with the given magic string —
// the version tag that keeps digest schemes from aliasing each other.
func NewDigestWriter(magic string) *DigestWriter {
	w := &DigestWriter{h: sha256.New()}
	w.S(magic)
	return w
}

// U64 writes one little-endian 64-bit word.
func (w *DigestWriter) U64(v uint64) {
	if w.n+8 > len(w.buf) {
		w.flush()
	}
	binary.LittleEndian.PutUint64(w.buf[w.n:], v)
	w.n += 8
}

// flush hands the buffered bytes to the hash.
func (w *DigestWriter) flush() {
	w.h.Write(w.buf[:w.n])
	w.n = 0
}

// I writes an int. F writes a float64 by bit pattern. S writes a
// length-prefixed string. Ints writes a length-prefixed int slice.
func (w *DigestWriter) I(v int)     { w.U64(uint64(int64(v))) }
func (w *DigestWriter) F(v float64) { w.U64(math.Float64bits(v)) }
func (w *DigestWriter) S(v string) {
	w.I(len(v))
	for len(v) > 0 {
		if w.n == len(w.buf) {
			w.flush()
		}
		c := copy(w.buf[w.n:], v)
		w.n += c
		v = v[c:]
	}
}
func (w *DigestWriter) Ints(v []int) {
	w.I(len(v))
	for _, x := range v {
		w.I(x)
	}
}

// Sum finalizes the digest. It leaves the writer's state intact: more
// writes may follow, and a later Sum digests the whole stream.
func (w *DigestWriter) Sum() Digest {
	w.flush()
	var d Digest
	w.h.Sum(d[:0])
	return d
}

// InstanceDigest computes the content address of an instance.
func InstanceDigest(in core.Instance) (Digest, error) {
	w, err := instanceDigestWriter(in)
	if err != nil {
		return Digest{}, err
	}
	return w.Sum(), nil
}

// InstanceDigests computes both content addresses of an instance from one
// pass over its canonical encoding: the broadcast digest (InstanceDigest)
// and the aggregation digest (AggInstanceDigest), which is the same stream
// plus the "agg" tag. Sum leaves the hash state intact, so the tag is
// appended after the first Sum and the instance is streamed only once.
func InstanceDigests(in core.Instance) (broadcast, agg Digest, err error) {
	w, err := instanceDigestWriter(in)
	if err != nil {
		return Digest{}, Digest{}, err
	}
	broadcast = w.Sum()
	w.S("agg")
	return broadcast, w.Sum(), nil
}

// instanceDigestWriter streams the canonical instance encoding into a
// fresh writer and returns it unfinalized, so digest variants (the
// aggregation workload's "agg" suffix) can append their tag before Sum.
func instanceDigestWriter(in core.Instance) (*DigestWriter, error) {
	if in.G == nil || in.Wake == nil {
		return nil, fmt.Errorf("graphio: cannot digest an instance with a nil graph or wake schedule")
	}
	wake, err := encodeWake(in.Wake)
	if err != nil {
		return nil, err
	}
	w := NewDigestWriter(digestMagic)
	n := in.G.N()
	w.I(n)
	w.F(in.G.Radius())
	for _, p := range in.G.Positions() {
		w.F(p.X)
		w.F(p.Y)
	}
	w.I(in.G.M())
	for u := 0; u < n; u++ {
		for _, v := range in.G.Adj(u) { // sorted by construction
			if v > u {
				w.I(u)
				w.I(v)
			}
		}
	}
	w.I(in.Source)
	w.I(in.Start)
	pre := append([]int(nil), in.PreCovered...)
	slices.Sort(pre)
	w.Ints(pre)
	w.S(wake.Kind)
	w.I(wake.Nodes)
	w.I(wake.Rate)
	w.I(wake.Cycles)
	w.U64(wake.Seed)
	w.I(wake.Period)
	w.Ints(wake.Phases)
	w.I(len(wake.Slots))
	for _, s := range wake.Slots {
		w.Ints(s)
	}
	// The channel count is appended only when K > 1, so every
	// single-channel instance keeps its pre-multi-channel digest (cache
	// keys, golden pins). The tag string keeps a channelized encoding from
	// aliasing any single-channel one.
	if in.Channels > 1 {
		w.S("channels")
		w.I(in.Channels)
	}
	// Same tagged-suffix pattern for the interference model: protocol-model
	// instances keep their historic digests; an SINR encoding can never
	// alias a protocol one (or one with different parameters).
	if in.SINR != nil {
		w.S("sinr")
		w.F(in.SINR.Alpha)
		w.F(in.SINR.Beta)
		w.F(in.SINR.Noise)
		w.I(len(in.SINR.Power))
		for _, p := range in.SINR.Power {
			w.F(p)
		}
	}
	return w, nil
}

// ResultWire is the wire form of a core.Result — the schema both
// `mlb-run -json` and the plan service's HTTP responses emit. EncodeResult
// is its indented JSON; the service embeds the struct itself, so the
// format is defined here alone.
type ResultWire struct {
	Version   int    `json:"version"`
	Scheduler string `json:"scheduler"`
	PA        int    `json:"pa"`
	Latency   int    `json:"latency"`
	Exact     bool   `json:"exact"`
	// Generation and Improved carry the anytime-improver provenance of a
	// served plan. Both are omitted at their zero values so every wire
	// encoding that predates the improver stays byte-identical.
	Generation int              `json:"generation,omitempty"`
	Improved   bool             `json:"improved,omitempty"`
	Stats      core.SearchStats `json:"stats"`
	Schedule   ScheduleWire     `json:"schedule"`
}

// NewResultWire projects a scheduler result, schedule included, onto its
// wire form.
func NewResultWire(res *core.Result) (ResultWire, error) {
	if res == nil || res.Schedule == nil {
		return ResultWire{}, fmt.Errorf("graphio: nil result")
	}
	return ResultWire{
		Version:    currentVersion,
		Scheduler:  res.Scheduler,
		PA:         res.PA,
		Latency:    res.Schedule.Latency(),
		Exact:      res.Exact,
		Generation: res.Generation,
		Improved:   res.Improved,
		Stats:      res.Stats,
		Schedule:   toScheduleWire(res.Schedule),
	}, nil
}

// EncodeResult serializes a scheduler result, schedule included.
func EncodeResult(res *core.Result) ([]byte, error) {
	return marshalWire(NewResultWire(res))
}

// DecodeResult rebuilds a result from EncodeResult output; Validate the
// inner schedule against its instance before trusting it.
func DecodeResult(data []byte) (*core.Result, error) {
	var st ResultWire
	if err := json.Unmarshal(data, &st); err != nil {
		return nil, fmt.Errorf("graphio: %w", err)
	}
	if st.Version != currentVersion {
		return nil, fmt.Errorf("graphio: unsupported version %d", st.Version)
	}
	s, err := fromScheduleWire(st.Schedule)
	if err != nil {
		return nil, err
	}
	return &core.Result{
		Scheduler:  st.Scheduler,
		Schedule:   s,
		PA:         st.PA,
		Exact:      st.Exact,
		Generation: st.Generation,
		Improved:   st.Improved,
		Stats:      st.Stats,
	}, nil
}
