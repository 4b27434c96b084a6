package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"
	"strconv"
	"time"

	"mlbs/internal/churn"
	"mlbs/internal/core"
	"mlbs/internal/dutycycle"
	"mlbs/internal/graphio"
	"mlbs/internal/topology"
)

// kind is the endpoint and request form of one request.
type kind int

const (
	planGen    kind = iota // POST /v1/plan, generator form
	planInline             // POST /v1/plan, inline instance encoding
	validateReq
	replanReq
	aggregateReq
	numKinds
)

var kindPath = [numKinds]string{"/v1/plan", "/v1/plan", "/v1/validate", "/v1/replan", "/v1/aggregate"}

// deployment is a generator-form instance selection: the paper deployment
// (n, seed), duty cycle r when r > 1.
type deployment struct {
	N    int
	Seed uint64
	R    int
}

// instance builds the deployment exactly as the service's generator
// resolver does (Seed^0xA5 wake seed, as mlb-run). The output checks
// compare digests, so a drift between the two shows up as failures.
func (d deployment) instance() (core.Instance, error) {
	dep, err := topology.Generate(topology.PaperConfig(d.N), d.Seed)
	if err != nil {
		return core.Instance{}, err
	}
	if d.R > 1 {
		wake := dutycycle.NewUniform(d.N, d.R, d.Seed^0xA5, 0)
		return core.Async(dep.G, dep.Source, wake, 0), nil
	}
	return core.Sync(dep.G, dep.Source), nil
}

// request is one request of a workload plus what its checks expect.
type request struct {
	kind kind
	// dep is the instance, or the base instance of a validate or replan.
	dep deployment
	// budget is the G-OPT state budget; 0 keeps the server default.
	budget int
	// warm marks a request whose plan was primed: it must hit the cache.
	warm     bool
	lossSeed uint64
	delta    churn.Delta
	// due is the open-loop send time, relative to the stream's start.
	due  time.Duration
	body []byte
}

func (r *request) path() string { return kindPath[r.kind] }

const (
	validateLoss   = 0.05
	validateTrials = 200
	// searchBudget caps every cold sync G-OPT search. At the default
	// budget the cost of a sync search is heavy-tailed (n=300: median 6 ms,
	// p99 180 ms, and rare seeds expand thousands of states at about 0.5 ms
	// each, 3.5 ms at n=600), so a window's mean and p99 would hang on a
	// few draws. With the cap, 84% of n=300 searches still finish exact and
	// the slowest costs about 40 ms.
	searchBudget = 64
	// primeBudget is the budget of every primed plan and of the requests
	// that address one. At this budget a priming search costs about the
	// same for every seed (at 64, plan-warm's 24 priming searches spread
	// 50% across seeds, mixed-open's 16 about 40%), so setup_s measures the
	// set-up, not the seed.
	primeBudget = 8
)

// encodeBody renders the wire body. inline is the instance encoding a
// planInline request ships; the other kinds ignore it.
func (r *request) encodeBody(inline []byte) ([]byte, error) {
	b := make([]byte, 0, 128+len(inline))
	b = append(b, '{')
	field := func(name string) {
		if len(b) > 1 {
			b = append(b, ',')
		}
		b = append(b, '"')
		b = append(b, name...)
		b = append(b, `":`...)
	}
	if r.kind != planInline {
		field("n")
		b = strconv.AppendInt(b, int64(r.dep.N), 10)
		field("seed")
		b = strconv.AppendUint(b, r.dep.Seed, 10)
		if r.dep.R > 1 {
			field("r")
			b = strconv.AppendInt(b, int64(r.dep.R), 10)
		}
	}
	if r.budget > 0 {
		field("budget")
		b = strconv.AppendInt(b, int64(r.budget), 10)
	}
	switch r.kind {
	case planInline:
		field("instance")
		b = append(b, inline...)
	case validateReq:
		field("loss_rate")
		b = strconv.AppendFloat(b, validateLoss, 'g', -1, 64)
		field("loss_seed")
		b = strconv.AppendUint(b, r.lossSeed, 10)
		field("trials")
		b = strconv.AppendInt(b, validateTrials, 10)
	case replanReq:
		d, err := churn.EncodeDelta(r.delta)
		if err != nil {
			return nil, err
		}
		field("delta")
		b = append(b, d...)
	}
	return append(b, '}'), nil
}

// inlineInstance is the instance encoding inside a planInline body, the
// last field.
func inlineInstance(body []byte) []byte {
	i := bytes.Index(body, []byte(`"instance":`))
	return body[i+len(`"instance":`) : len(body)-1]
}

// stream is one sequence of requests. A closed loop draws request i on
// demand from at; an open loop walks list, which is in due order.
type stream struct {
	at   func(i int) request
	list []request
}

// get returns request i; ok is false past the end of an open-loop list.
func (s stream) get(i int) (request, bool) {
	if s.list != nil {
		if i >= len(s.list) {
			return request{}, false
		}
		return s.list[i], true
	}
	return s.at(i), true
}

// inputs is everything one workload sends for one seed.
type inputs struct {
	// prime runs during set-up and fills the server's working set.
	prime  []request
	warmup stream
	window stream
	// bases are the mixed-open base instances, built once for the inline
	// bodies and the delta sampling; the checks reuse them.
	bases map[deployment]core.Instance
}

// Stream tags keep the seed-derived sequences independent: the warm-up
// never draws a deployment the window will draw, so the window's first M
// requests are the same in every run whatever the warm-up managed.
const (
	tagBases uint64 = iota + 1
	tagWarmup
	tagWindow
)

// mix is the SplitMix64 finalizer.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// draw derives value i of stream tag from the workload seed.
func draw(seed, tag uint64, i int) uint64 {
	return mix(mix(seed^(tag<<56)) + uint64(i))
}

// freshSeed maps a drawn value to a deployment seed. 40 bits keep bodies
// short and make a repeat among a run's few thousand draws negligible.
func freshSeed(v uint64) uint64 { return v>>24 + 1 }

// buildInputs draws one workload's inputs from seed. window is the
// measured window length, which sizes the open-loop arrival lists.
func buildInputs(w *workload, seed uint64, window time.Duration) (*inputs, error) {
	switch w.name {
	case "plan-warm":
		return planWarmInputs(seed), nil
	case "cold-sync":
		return coldInputs(seed, 0, searchBudget, 150, 300), nil
	case "cold-duty":
		return coldInputs(seed, 10, 0, 80, 100), nil
	case "mixed-open":
		return mixedInputs(w, seed, window)
	}
	return nil, fmt.Errorf("unknown workload %q", w.name)
}

func planWarmInputs(seed uint64) *inputs {
	var bases []deployment
	for _, n := range []int{150, 300, 600} {
		for j := 0; j < 8; j++ {
			bases = append(bases, deployment{N: n, Seed: freshSeed(draw(seed, tagBases, len(bases)))})
		}
	}
	in := &inputs{}
	for _, d := range bases {
		in.prime = append(in.prime, mustBody(request{kind: planGen, dep: d, budget: primeBudget}, nil))
	}
	hits := func(tag uint64) stream {
		return stream{at: func(i int) request {
			d := bases[draw(seed, tag, i)%uint64(len(bases))]
			return mustBody(request{kind: planGen, dep: d, budget: primeBudget, warm: true}, nil)
		}}
	}
	in.warmup, in.window = hits(tagWarmup), hits(tagWindow)
	return in
}

// coldInputs sends a new deployment per request, n alternating between
// nEven and nOdd, so every request misses the cache and runs a search.
// The duty-cycle searches keep the default budget: their cost is steady,
// most of it the E-model incumbent's mean-wake-time weights.
func coldInputs(seed uint64, r, budget, nEven, nOdd int) *inputs {
	fresh := func(tag uint64) stream {
		return stream{at: func(i int) request {
			d := deployment{N: nEven, Seed: freshSeed(draw(seed, tag, i)), R: r}
			if i%2 == 1 {
				d.N = nOdd
			}
			return mustBody(request{kind: planGen, dep: d, budget: budget}, nil)
		}}
	}
	return &inputs{warmup: fresh(tagWarmup), window: fresh(tagWindow)}
}

// mustBody fills r.body. Only replan bodies can fail to encode, and
// mixedInputs encodes those itself.
func mustBody(r request, inline []byte) request {
	b, err := r.encodeBody(inline)
	if err != nil {
		panic(err)
	}
	r.body = b
	return r
}

// mixedTraffic is the mixed-open traffic mix. Cold plans use a new n=150
// deployment; the other kinds address one of the primed bases, except
// aggregate, which asks for a new n=300 deployment.
var mixedTraffic = []traffic{
	{0.35, planGen, false},
	{0.10, planInline, false},
	{0.10, planGen, true},
	{0.15, validateReq, false},
	{0.15, replanReq, false},
	{0.15, aggregateReq, false},
}

const (
	mixedBases = 16
	mixedBaseN = 300
)

func mixedInputs(w *workload, seed uint64, window time.Duration) (*inputs, error) {
	in := &inputs{bases: make(map[deployment]core.Instance, mixedBases)}
	deps := make([]deployment, mixedBases)
	inline := make([][]byte, mixedBases)
	for j := range deps {
		d := deployment{N: mixedBaseN, Seed: freshSeed(draw(seed, tagBases, j))}
		inst, err := d.instance()
		if err != nil {
			return nil, fmt.Errorf("mixed-open base %d: %w", j, err)
		}
		enc, err := graphio.EncodeInstance(inst)
		if err != nil {
			return nil, err
		}
		deps[j], inline[j] = d, enc
		in.bases[d] = inst
		in.prime = append(in.prime, mustBody(request{kind: planGen, dep: d, budget: primeBudget}, nil))
	}
	// Deltas are unique per base across both streams, so every replan
	// misses the replan cache.
	seen := make(map[string]bool)
	arrivals := func(tag uint64, span time.Duration) ([]request, error) {
		rng := rand.New(rand.NewPCG(seed, tag))
		var list []request
		t := 0.0
		for {
			t += rng.ExpFloat64() / w.rate
			due := time.Duration(t * float64(time.Second))
			if due >= span {
				return list, nil
			}
			j := rng.IntN(mixedBases)
			mx := pickTraffic(rng.Float64())
			// Only plans report cache_hit for the primed plan.
			warm := (mx.kind == planGen || mx.kind == planInline) && !mx.cold
			r := request{kind: mx.kind, dep: deps[j], budget: primeBudget, warm: warm, due: due}
			switch {
			case mx.kind == planGen && mx.cold:
				r.dep, r.budget = deployment{N: 150, Seed: freshSeed(rng.Uint64())}, searchBudget
			case mx.kind == aggregateReq:
				// The convergecast scheduler takes no budget.
				r.dep, r.budget = deployment{N: mixedBaseN, Seed: freshSeed(rng.Uint64())}, 0
			case mx.kind == validateReq:
				r.lossSeed = rng.Uint64()>>1 + 1
			case mx.kind == replanReq:
				d, err := sampleDelta(rng, in.bases[r.dep], j, seen)
				if err != nil {
					return nil, err
				}
				r.delta = d
			}
			b, err := r.encodeBody(inline[j])
			if err != nil {
				return nil, err
			}
			r.body = b
			list = append(list, r)
		}
	}
	var err error
	if in.warmup.list, err = arrivals(tagWarmup, warmupDuration); err != nil {
		return nil, err
	}
	if in.window.list, err = arrivals(tagWindow, window); err != nil {
		return nil, err
	}
	return in, nil
}

type traffic struct {
	share float64
	kind  kind
	cold  bool // a plan of a new deployment instead of a primed one
}

func pickTraffic(u float64) (mx traffic) {
	for _, mx = range mixedTraffic {
		if u < mx.share {
			return mx
		}
		u -= mx.share
	}
	return mx
}

// sampleDelta draws a new 1–2 event delta for base j by rejection: the
// delta must apply cleanly (no failed source, graph still connected), so
// no replan is expected to fail, and must not repeat an earlier one.
func sampleDelta(rng *rand.Rand, base core.Instance, j int, seen map[string]bool) (churn.Delta, error) {
	side := topology.PaperConfig(base.G.N()).AreaSide
	for try := 0; try < 1000; try++ {
		n := base.G.N()
		events := make([]churn.Event, 1+rng.IntN(2))
		for e := range events {
			switch rng.IntN(3) {
			case 0:
				events[e] = churn.Event{Kind: churn.NodeFail, Node: rng.IntN(n)}
				n--
			case 1:
				events[e] = churn.Event{Kind: churn.NodeJoin, X: rng.Float64() * side, Y: rng.Float64() * side}
				n++
			default:
				events[e] = churn.Event{Kind: churn.PositionJitter, Node: rng.IntN(n),
					X: 4*rng.Float64() - 2, Y: 4*rng.Float64() - 2}
			}
		}
		d := churn.Delta{Events: events}
		if _, _, err := churn.Apply(base, d); err != nil {
			continue
		}
		dg, err := churn.DeltaDigest(d)
		if err != nil {
			return churn.Delta{}, err
		}
		k := strconv.Itoa(j) + "|" + dg.String()
		if seen[k] {
			continue
		}
		seen[k] = true
		return d, nil
	}
	return churn.Delta{}, errors.New("no applicable delta in 1000 draws")
}
