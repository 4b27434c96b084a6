package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"mlbs/internal/churn"
	"mlbs/internal/core"
	"mlbs/internal/graphio"
	"mlbs/internal/sim"
)

// mirror builds the instances the checks compare against. Instances that
// many requests address (primed plans, validate and replan bases) are built
// once; a cold request's deployment is built for its one check and
// dropped, so a long window does not hold thousands of graphs.
type mirror struct {
	mu    sync.Mutex
	cache map[deployment]core.Instance
}

func newMirror(bases map[deployment]core.Instance) *mirror {
	m := &mirror{cache: make(map[deployment]core.Instance, len(bases))}
	for d, in := range bases {
		m.cache[d] = in
	}
	return m
}

func (m *mirror) instance(r *request) (core.Instance, error) {
	if !(r.warm || r.kind == validateReq || r.kind == replanReq) {
		return r.dep.instance()
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if in, ok := m.cache[r.dep]; ok {
		return in, nil
	}
	in, err := r.dep.instance()
	if err == nil {
		m.cache[r.dep] = in
	}
	return in, err
}

// checked is the verdict on one distinct body.
type checked struct {
	err error
	// slots is the latency of the schedule the body carries; -1 for
	// bodies without one (validate reports).
	slots int
}

// checkAll verifies every distinct body against its request, on `senders`
// goroutines: the window is over, so checking competes with nothing.
func checkAll(bodies []distinct, reqAt func(i int) request, m *mirror) []checked {
	out := make([]checked, len(bodies))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < senders; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rp := sim.NewReplayer()
			for {
				id := int(next.Add(1) - 1)
				if id >= len(bodies) {
					return
				}
				r := reqAt(bodies[id].idx)
				slots, err := checkBody(&r, bodies[id].body, m, rp)
				out[id] = checked{err: err, slots: slots}
			}
		}()
	}
	wg.Wait()
	return out
}

// envelope is the union of the response fields the checks read.
type envelope struct {
	Digest       string          `json:"digest"`
	BaseDigest   string          `json:"base_digest"`
	CacheHit     bool            `json:"cache_hit"`
	LatencySlots int             `json:"latency_slots"`
	Result       json.RawMessage `json:"result"`
	Report       json.RawMessage `json:"report"`
}

// checkBody verifies one response independently of the server: the digest
// must match the locally built instance (which proves the mirror is the
// instance the server planned), and the plan must pass Validate and replay
// through the physics with zero collisions.
func checkBody(r *request, body []byte, m *mirror, rp *sim.Replayer) (int, error) {
	var env envelope
	if err := json.Unmarshal(body, &env); err != nil {
		return -1, fmt.Errorf("response: %w", err)
	}
	in, err := m.instance(r)
	if err != nil {
		return -1, fmt.Errorf("mirror instance: %w", err)
	}
	digest := graphio.InstanceDigest
	if r.kind == aggregateReq {
		digest = graphio.AggInstanceDigest
	}
	d, err := digest(in)
	if err != nil {
		return -1, err
	}
	want := d.String()
	// A replan answers for the mutated instance; its base digest is
	// checked below.
	if r.kind != replanReq && env.Digest != want {
		return -1, fmt.Errorf("digest %s, want %s", env.Digest, want)
	}
	switch r.kind {
	case planGen, planInline:
		if r.warm && !env.CacheHit {
			return -1, errors.New("primed plan missed the cache")
		}
		res, err := graphio.DecodeResult(env.Result)
		if err != nil {
			return -1, err
		}
		return res.Schedule.Latency(), checkSchedule(in, res.Schedule, rp)
	case validateReq:
		rep, err := graphio.DecodeReliabilityReport(env.Report)
		if err != nil {
			return -1, err
		}
		if rep.Trials != validateTrials {
			return -1, fmt.Errorf("report has %d trials, want %d", rep.Trials, validateTrials)
		}
		if !(rep.MeanDeliveryRatio > 0 && rep.MeanDeliveryRatio <= 1) {
			return -1, fmt.Errorf("delivery ratio %v outside (0,1]", rep.MeanDeliveryRatio)
		}
		return -1, nil
	case replanReq:
		if env.BaseDigest != want {
			return -1, fmt.Errorf("base digest %s, want %s", env.BaseDigest, want)
		}
		mutated, _, err := churn.Apply(in, r.delta)
		if err != nil {
			return -1, fmt.Errorf("apply delta: %w", err)
		}
		md, err := graphio.InstanceDigest(mutated)
		if err != nil {
			return -1, err
		}
		if env.Digest != md.String() {
			return -1, fmt.Errorf("mutated digest %s, want %s", env.Digest, md)
		}
		res, err := graphio.DecodeResult(env.Result)
		if err != nil {
			return -1, err
		}
		return res.Schedule.Latency(), checkSchedule(mutated, res.Schedule, rp)
	case aggregateReq:
		res, err := graphio.DecodeAggResult(env.Result)
		if err != nil {
			return -1, err
		}
		if err := res.Schedule.Validate(in); err != nil {
			return -1, fmt.Errorf("aggregate schedule invalid: %w", err)
		}
		rep, err := sim.ReplayAggregate(in, res.Schedule)
		if err != nil {
			return -1, err
		}
		if !rep.Completed || len(rep.Collisions) > 0 {
			return -1, fmt.Errorf("aggregate replay: completed=%v collisions=%d", rep.Completed, len(rep.Collisions))
		}
		if env.LatencySlots != res.Schedule.Latency() {
			return -1, fmt.Errorf("latency_slots %d, schedule latency %d", env.LatencySlots, res.Schedule.Latency())
		}
		return res.Schedule.Latency(), nil
	}
	return -1, fmt.Errorf("unknown request kind %d", r.kind)
}

func checkSchedule(in core.Instance, s *core.Schedule, rp *sim.Replayer) error {
	if err := s.Validate(in); err != nil {
		return fmt.Errorf("schedule invalid: %w", err)
	}
	rep, err := rp.Replay(in, s)
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	if !rep.Completed || len(rep.Collisions) > 0 {
		return fmt.Errorf("replay: completed=%v collisions=%d", rep.Completed, len(rep.Collisions))
	}
	return nil
}
