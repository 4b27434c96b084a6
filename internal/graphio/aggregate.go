package graphio

import (
	"encoding/json"
	"fmt"

	"mlbs/internal/aggregate"
	"mlbs/internal/core"
	"mlbs/internal/graph"
)

// aggScheduleJSON is the stored form of an aggregate.Schedule, columnar
// like ScheduleWire: parallel arrays per advance plus the routing tree's
// parent array. The channel column is present only when some advance uses
// a channel above 0, so single-channel encodings stay minimal.
type aggScheduleJSON struct {
	Version int              `json:"version"`
	Sink    graph.NodeID     `json:"sink"`
	Start   int              `json:"start"`
	Parent  []graph.NodeID   `json:"parent"`
	T       []int            `json:"t"`
	Senders [][]graph.NodeID `json:"senders"`
	Channel []int            `json:"channel,omitempty"`
}

func toAggScheduleJSON(s *aggregate.Schedule) aggScheduleJSON {
	out := aggScheduleJSON{
		Version: currentVersion,
		Sink:    s.Sink,
		Start:   s.Start,
		Parent:  s.Parent,
	}
	channelized := false
	for _, adv := range s.Advances {
		out.T = append(out.T, adv.T)
		out.Senders = append(out.Senders, adv.Senders)
		if adv.Channel != 0 {
			channelized = true
		}
	}
	if channelized {
		out.Channel = make([]int, len(s.Advances))
		for i, adv := range s.Advances {
			out.Channel[i] = adv.Channel
		}
	}
	return out
}

func fromAggScheduleJSON(st aggScheduleJSON) (*aggregate.Schedule, error) {
	if len(st.T) != len(st.Senders) {
		return nil, fmt.Errorf("graphio: aggregation schedule arrays of different lengths")
	}
	if len(st.Channel) != 0 && len(st.Channel) != len(st.T) {
		return nil, fmt.Errorf("graphio: aggregation channel array of different length")
	}
	n := len(st.Parent)
	if n < 1 || n > MaxWireNodes {
		return nil, fmt.Errorf("graphio: aggregation parent array has %d entries (limit %d)", n, MaxWireNodes)
	}
	if st.Sink < 0 || st.Sink >= n {
		return nil, fmt.Errorf("graphio: sink %d outside [0,%d)", st.Sink, n)
	}
	for u, p := range st.Parent {
		if p < -1 || p >= n {
			return nil, fmt.Errorf("graphio: node %d parent %d outside [-1,%d)", u, p, n)
		}
	}
	s := &aggregate.Schedule{Sink: st.Sink, Start: st.Start, Parent: st.Parent}
	for i := range st.T {
		adv := aggregate.Advance{T: st.T[i], Senders: st.Senders[i]}
		if len(st.Channel) > 0 {
			adv.Channel = st.Channel[i]
			if adv.Channel < 0 || adv.Channel > maxWireChannel {
				return nil, fmt.Errorf("graphio: advance %d channel %d outside [0,%d]", i, adv.Channel, maxWireChannel)
			}
		}
		for _, u := range adv.Senders {
			if u < 0 || u >= n {
				return nil, fmt.Errorf("graphio: advance %d sender %d outside [0,%d)", i, u, n)
			}
		}
		s.Advances = append(s.Advances, adv)
	}
	return s, nil
}

// EncodeAggSchedule serializes an aggregation schedule.
func EncodeAggSchedule(s *aggregate.Schedule) ([]byte, error) {
	if s == nil {
		return nil, fmt.Errorf("graphio: nil aggregation schedule")
	}
	return json.MarshalIndent(toAggScheduleJSON(s), "", " ")
}

// DecodeAggSchedule rebuilds an aggregation schedule from
// EncodeAggSchedule output. Like every decoder in this package it rejects
// malformed bytes instead of panicking; run aggregate.Schedule.Validate
// against the instance before trusting the plan.
func DecodeAggSchedule(data []byte) (*aggregate.Schedule, error) {
	var st aggScheduleJSON
	if err := json.Unmarshal(data, &st); err != nil {
		return nil, fmt.Errorf("graphio: %w", err)
	}
	if st.Version != currentVersion {
		return nil, fmt.Errorf("graphio: unsupported version %d", st.Version)
	}
	return fromAggScheduleJSON(st)
}

// AggResultWire is the wire form of an aggregate.Result — the schema the
// aggregation endpoint's HTTP responses embed. EncodeAggResult is its
// indented JSON.
type AggResultWire struct {
	Version   int             `json:"version"`
	Scheduler string          `json:"scheduler"`
	Latency   int             `json:"latency"`
	Schedule  aggScheduleJSON `json:"schedule"`
}

// NewAggResultWire projects an aggregation scheduling result onto its wire
// form.
func NewAggResultWire(res *aggregate.Result) (AggResultWire, error) {
	if res == nil || res.Schedule == nil {
		return AggResultWire{}, fmt.Errorf("graphio: nil aggregation result")
	}
	return AggResultWire{
		Version:   currentVersion,
		Scheduler: res.Scheduler,
		Latency:   res.Schedule.Latency(),
		Schedule:  toAggScheduleJSON(res.Schedule),
	}, nil
}

// EncodeAggResult serializes an aggregation scheduling result.
func EncodeAggResult(res *aggregate.Result) ([]byte, error) {
	return marshalWire(NewAggResultWire(res))
}

// DecodeAggResult rebuilds an aggregation result from EncodeAggResult
// output.
func DecodeAggResult(data []byte) (*aggregate.Result, error) {
	var st AggResultWire
	if err := json.Unmarshal(data, &st); err != nil {
		return nil, fmt.Errorf("graphio: %w", err)
	}
	if st.Version != currentVersion {
		return nil, fmt.Errorf("graphio: unsupported version %d", st.Version)
	}
	s, err := fromAggScheduleJSON(st.Schedule)
	if err != nil {
		return nil, err
	}
	return &aggregate.Result{Scheduler: st.Scheduler, Schedule: s, LatencySlots: st.Latency}, nil
}

// AggInstanceDigest computes the content address of an instance *as an
// aggregation problem*: the broadcast digest stream plus an "agg" suffix
// tag, following the channels/sinr tagged-suffix pattern. The same
// topology asked as a broadcast and as a convergecast must never share a
// cache key or alias each other's plans.
func AggInstanceDigest(in core.Instance) (Digest, error) {
	_, agg, err := InstanceDigests(in)
	return agg, err
}
