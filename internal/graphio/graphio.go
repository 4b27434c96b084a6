// Package graphio persists deployments and schedules as JSON, so that a
// specific random instance — or a schedule computed on one machine — can
// be shared, archived, and replayed exactly. Graphs are stored as
// positions + radius and rebuilt with the UDG constructor, which keeps
// files small and guarantees the decoded adjacency matches the encoder's.
package graphio

import (
	"encoding/json"
	"fmt"

	"mlbs/internal/core"
	"mlbs/internal/geom"
	"mlbs/internal/graph"
	"mlbs/internal/topology"
)

// deploymentJSON is the stored form of a topology.Deployment.
type deploymentJSON struct {
	Version   int          `json:"version"`
	Seed      uint64       `json:"seed"`
	Radius    float64      `json:"radius"`
	AreaSide  float64      `json:"area_side"`
	Source    graph.NodeID `json:"source"`
	SourceEcc int          `json:"source_ecc"`
	X         []float64    `json:"x"`
	Y         []float64    `json:"y"`
}

// currentVersion guards file-format evolution.
const currentVersion = 1

// MaxWireNodes bounds the node count any wire-reachable path will
// materialize: the decoders here, and churn.Apply (a join-heavy delta on
// /v1/replan must not grow the network past it). Graph construction is
// quadratic in memory (per-node neighbor bitsets, and adjacency slabs on
// dense graphs), so sizes that arbitrary bytes could otherwise demand
// must be refused; in-process callers with genuinely larger instances
// don't round-trip through JSON. A complete graph at this cap costs
// ~67 MB of adjacency — survivable; 1<<14 would already be ~2 GB.
const MaxWireNodes = 1 << 12

// EncodeDeployment serializes a deployment.
func EncodeDeployment(d *topology.Deployment) ([]byte, error) {
	if d == nil || d.G == nil {
		return nil, fmt.Errorf("graphio: nil deployment")
	}
	out := deploymentJSON{
		Version:   currentVersion,
		Seed:      d.Seed,
		Radius:    d.Cfg.Radius,
		AreaSide:  d.Cfg.AreaSide,
		Source:    d.Source,
		SourceEcc: d.SourceEcc,
	}
	for _, p := range d.G.Positions() {
		out.X = append(out.X, p.X)
		out.Y = append(out.Y, p.Y)
	}
	return json.MarshalIndent(out, "", " ")
}

// DecodeDeployment rebuilds a deployment from its stored form.
func DecodeDeployment(data []byte) (*topology.Deployment, error) {
	var in deploymentJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return nil, fmt.Errorf("graphio: %w", err)
	}
	if in.Version != currentVersion {
		return nil, fmt.Errorf("graphio: unsupported version %d", in.Version)
	}
	if len(in.X) != len(in.Y) {
		return nil, fmt.Errorf("graphio: coordinate arrays of different lengths")
	}
	if len(in.X) == 0 {
		return nil, fmt.Errorf("graphio: empty deployment")
	}
	if len(in.X) > MaxWireNodes {
		return nil, fmt.Errorf("graphio: deployment has %d nodes (limit %d)", len(in.X), MaxWireNodes)
	}
	if in.Radius <= 0 {
		return nil, fmt.Errorf("graphio: non-positive radius")
	}
	pos := make([]geom.Point, len(in.X))
	for i := range pos {
		pos[i] = geom.Point{X: in.X[i], Y: in.Y[i]}
	}
	g := graph.FromUDG(pos, in.Radius)
	if in.Source < 0 || in.Source >= g.N() {
		return nil, fmt.Errorf("graphio: source %d out of range", in.Source)
	}
	ecc, connected := g.Eccentricity(in.Source)
	if !connected {
		return nil, fmt.Errorf("graphio: decoded deployment is disconnected")
	}
	if in.SourceEcc != 0 && ecc != in.SourceEcc {
		return nil, fmt.Errorf("graphio: stored eccentricity %d, recomputed %d — file corrupt?", in.SourceEcc, ecc)
	}
	return &topology.Deployment{
		G:         g,
		Source:    in.Source,
		SourceEcc: ecc,
		Seed:      in.Seed,
		Cfg: topology.Config{
			N:        g.N(),
			AreaSide: in.AreaSide,
			Radius:   in.Radius,
		},
	}, nil
}

// ScheduleWire is the wire form of a core.Schedule: EncodeSchedule is its
// indented JSON, and the plan service embeds it in HTTP responses. Channel
// is emitted only when some advance uses a channel other than 0, so
// single-channel schedules encode byte-identically to the pre-multi-channel
// format.
type ScheduleWire struct {
	Version int              `json:"version"`
	Source  graph.NodeID     `json:"source"`
	Start   int              `json:"start"`
	T       []int            `json:"t"`
	Senders [][]graph.NodeID `json:"senders"`
	Covered [][]graph.NodeID `json:"covered"`
	Channel []int            `json:"channel,omitempty"`
}

// maxWireChannel bounds per-advance channel numbers a decoder will accept;
// Schedule.Validate enforces the instance's real channel count later.
const maxWireChannel = core.MaxChannels

// toScheduleWire projects a non-nil schedule onto its wire form.
func toScheduleWire(s *core.Schedule) ScheduleWire {
	out := ScheduleWire{Version: currentVersion, Source: s.Source, Start: s.Start}
	channelized := false
	for _, adv := range s.Advances {
		out.T = append(out.T, adv.T)
		out.Senders = append(out.Senders, adv.Senders)
		out.Covered = append(out.Covered, adv.Covered)
		if adv.Channel != 0 {
			channelized = true
		}
	}
	if channelized {
		for _, adv := range s.Advances {
			out.Channel = append(out.Channel, adv.Channel)
		}
	}
	return out
}

// fromScheduleWire rebuilds a schedule from its wire form, checking the
// array shape and channel bounds.
func fromScheduleWire(in ScheduleWire) (*core.Schedule, error) {
	if len(in.T) != len(in.Senders) || len(in.T) != len(in.Covered) {
		return nil, fmt.Errorf("graphio: advance arrays of different lengths")
	}
	if len(in.Channel) != 0 && len(in.Channel) != len(in.T) {
		return nil, fmt.Errorf("graphio: channel array of different length")
	}
	s := &core.Schedule{Source: in.Source, Start: in.Start}
	for i := range in.T {
		adv := core.Advance{
			T:       in.T[i],
			Senders: in.Senders[i],
			Covered: in.Covered[i],
		}
		if len(in.Channel) > 0 {
			ch := in.Channel[i]
			if ch < 0 || ch >= maxWireChannel {
				return nil, fmt.Errorf("graphio: advance %d channel %d outside [0,%d)", i, ch, maxWireChannel)
			}
			adv.Channel = ch
		}
		s.Advances = append(s.Advances, adv)
	}
	return s, nil
}

// NewScheduleWire projects a schedule onto its wire form.
func NewScheduleWire(s *core.Schedule) (ScheduleWire, error) {
	if s == nil {
		return ScheduleWire{}, fmt.Errorf("graphio: nil schedule")
	}
	return toScheduleWire(s), nil
}

// EncodeSchedule serializes a schedule.
func EncodeSchedule(s *core.Schedule) ([]byte, error) {
	return marshalWire(NewScheduleWire(s))
}

// marshalWire is the encoder behind the Encode* functions of the wire
// forms the plan service embeds: the indented JSON of the projection, or
// its error.
func marshalWire[W any](w W, err error) ([]byte, error) {
	if err != nil {
		return nil, err
	}
	return json.MarshalIndent(w, "", " ")
}

// DecodeSchedule rebuilds a schedule; callers should Validate it against
// their instance before trusting it.
func DecodeSchedule(data []byte) (*core.Schedule, error) {
	var in ScheduleWire
	if err := json.Unmarshal(data, &in); err != nil {
		return nil, fmt.Errorf("graphio: %w", err)
	}
	if in.Version != currentVersion {
		return nil, fmt.Errorf("graphio: unsupported version %d", in.Version)
	}
	return fromScheduleWire(in)
}
