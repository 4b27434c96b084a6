// Package mlbs is a library for minimum-latency broadcast scheduling with
// conflict awareness in wireless sensor networks, reproducing Jiang, Wu,
// Guo, Wu, Kline, Wang — "Minimum Latency Broadcasting with Conflict
// Awareness in Wireless Sensor Networks", ICPP 2012.
//
// The package schedules a broadcast from a source node over a unit-disk
// graph so that no two concurrent relays share an uncovered neighbor (the
// interference model of the paper's Section III), minimizing the slot at
// which the last node receives the message. It covers both the round-based
// synchronous system and the asynchronous duty-cycle system, in which each
// node's sending channel is only on at pseudo-random wake slots.
//
// Three schedulers implement the paper's Algorithm 3:
//
//   - OPT — the exact minimum over all maximal conflict-free relay sets,
//     found by memoized branch-and-bound on the time counter M (Eq. 5/6);
//   - GOPT — the same search restricted to the greedy color classes of
//     Algorithm 1 (Eq. 7/8);
//   - EModel — the practical O(1)-overhead policy driven by the quadrant
//     estimates E₁..E₄ of Algorithm 2 (Eq. 9/10/11).
//
// Baseline26 and Baseline17 provide the BFS-layer-synchronized
// state-of-the-art baselines the paper compares against, and Localized is
// the distributed 2-hop scheme sketched as future work in Section VII.
//
// A minimal synchronous run:
//
//	dep, _ := mlbs.PaperDeployment(150, 42)
//	in := mlbs.SyncInstance(dep.G, dep.Source)
//	res, _ := mlbs.GOPT().Schedule(in)
//	fmt.Println(res.PA, res.Exact)
//
// See the examples directory for duty-cycle and experiment-harness usage.
package mlbs

import (
	"context"
	"io"

	"mlbs/internal/aggregate"
	"mlbs/internal/baseline"
	"mlbs/internal/churn"
	"mlbs/internal/core"
	"mlbs/internal/dutycycle"
	"mlbs/internal/emodel"
	"mlbs/internal/experiments"
	"mlbs/internal/geom"
	"mlbs/internal/graph"
	"mlbs/internal/graphio"
	"mlbs/internal/improve"
	"mlbs/internal/interference"
	"mlbs/internal/localized"
	"mlbs/internal/mote"
	"mlbs/internal/obs"
	"mlbs/internal/paperfig"
	"mlbs/internal/reliability"
	"mlbs/internal/service"
	"mlbs/internal/sim"
	"mlbs/internal/stats"
	"mlbs/internal/topology"
	"mlbs/internal/trace"
)

// Core model types.
type (
	// Point is a node location in feet.
	Point = geom.Point
	// Graph is an immutable WSN topology (unit-disk or explicit).
	Graph = graph.Graph
	// NodeID identifies a node; IDs are dense in [0, N).
	NodeID = graph.NodeID
	// Instance is one broadcast problem: graph, source, start slot, wake
	// schedule.
	Instance = core.Instance
	// Advance is one broadcasting advance: a conflict-free relay set and
	// the nodes it covers.
	Advance = core.Advance
	// Schedule is a complete broadcast schedule; PA() is the paper's P(A).
	Schedule = core.Schedule
	// Result is a scheduler's outcome, including the optimality flag.
	Result = core.Result
	// Scheduler is the common interface of all scheduling algorithms.
	Scheduler = core.Scheduler
	// SearchStats reports branch-and-bound effort.
	SearchStats = core.SearchStats
	// WakeSchedule describes when each node's sending channel is on.
	WakeSchedule = dutycycle.Schedule
	// Deployment is a generated topology with its source.
	Deployment = topology.Deployment
	// TopologyConfig parameterizes deployment generation.
	TopologyConfig = topology.Config
	// Report is the physical outcome of executing a schedule.
	Report = sim.Report
	// SINRParams configures the physical (SINR) interference model; a nil
	// Instance.SINR keeps the paper's protocol model.
	SINRParams = interference.SINRParams
	// InterferenceOracle is the conflict predicate every layer consults —
	// graph (protocol) or SINR backed.
	InterferenceOracle = interference.Oracle
	// Radio models mote timing and energy (Mica2 by default).
	Radio = mote.Radio
	// RadioUsage tallies transmissions, receptions, collisions and idling.
	RadioUsage = mote.Usage
	// ETable holds the per-node quadrant estimates E₁..E₄.
	ETable = emodel.Table
	// Figure is a regenerated paper figure.
	Figure = experiments.Figure
	// ExperimentConfig tunes a figure sweep.
	ExperimentConfig = experiments.Config
	// ExperimentSummary quantifies the Section V-C claims.
	ExperimentSummary = experiments.Summary
	// TraceRow is one line of a Table II/III/IV-style decision table.
	TraceRow = trace.Row
	// Sample accumulates mean/CI statistics.
	Sample = stats.Sample
	// LossFunc decides per-link frame loss for lossy-channel executions.
	LossFunc = sim.LossFunc
	// LossyReport extends Report with the dropped-frame count.
	LossyReport = sim.LossyReport
	// Ablation is a named-variant comparison (DESIGN.md §7).
	Ablation = experiments.Ablation
	// SearchEngine is a reusable search scheduler: same algorithm as
	// OPT/G-OPT but its arenas survive across calls. Not concurrency-safe;
	// one per worker goroutine.
	SearchEngine = core.Engine
	// Digest is the content address of a broadcast instance.
	Digest = graphio.Digest
	// PlanService serves broadcast plans concurrently behind a
	// content-addressed cache (DESIGN.md §9).
	PlanService = service.Service
	// ServiceConfig sizes a PlanService.
	ServiceConfig = service.Config
	// WorkloadRequest is the shared request envelope every service
	// workload embeds: instance/generator selection, scheduler, budget and
	// caching discipline.
	WorkloadRequest = service.WorkloadRequest
	// PlanRequest is one plan-service request.
	PlanRequest = service.WorkloadRequest
	// PlanGenerator is the request form that asks the service to build the
	// paper-topology instance itself.
	PlanGenerator = service.Generator
	// PlanResponse is one plan-service answer.
	PlanResponse = service.Response
	// ServiceMetrics snapshots plan-service traffic.
	ServiceMetrics = service.Metrics
	// SweepRequest is a streaming parameter sweep over the topology family.
	SweepRequest = service.SweepRequest
	// SweepItem is one streamed sweep result.
	SweepItem = service.SweepItem
	// Improver is the anytime schedule improver: it tightens any valid
	// schedule under a deadline or move budget, never returning worse than
	// its input (DESIGN.md §14). Not concurrency-safe; one per goroutine.
	Improver = improve.Improver
	// ImproveOptions budgets one Improve call.
	ImproveOptions = improve.Options
	// ImproveStats reports what an Improve call did.
	ImproveStats = improve.Stats
	// Replayer executes schedules against the physics with reusable
	// buffers; a report stays valid until the replayer's next call.
	Replayer = sim.Replayer
	// LossyReplayer is the lossy-channel replayer with reusable buffers.
	LossyReplayer = sim.LossyReplayer
	// ReliabilityLossModel describes the stochastic channel of a
	// Monte-Carlo validation.
	ReliabilityLossModel = reliability.LossModel
	// ReliabilityConfig sizes a Monte-Carlo estimation run.
	ReliabilityConfig = reliability.Config
	// ReliabilityReport is a Monte-Carlo reliability estimate (DESIGN.md §10).
	ReliabilityReport = reliability.Report
	// ReliabilityQuantiles summarizes a latency distribution in slots.
	ReliabilityQuantiles = reliability.Quantiles
	// ReliabilityEstimator batches Monte-Carlo replays with reusable state.
	ReliabilityEstimator = reliability.Estimator
	// RepairConfig tunes conflict-aware retransmission repair.
	RepairConfig = reliability.RepairConfig
	// RepairResult reports a repair run and its latency penalty.
	RepairResult = reliability.RepairResult
	// ValidateRequest is one reliability-validation service request.
	ValidateRequest = service.ValidateRequest
	// ValidateResponse is one reliability-validation service answer.
	ValidateResponse = service.ValidateResponse
	// ChurnEvent is one typed topology change (fail/join/radius/jitter).
	ChurnEvent = churn.Event
	// ChurnKind names a topology event type.
	ChurnKind = churn.Kind
	// ChurnDelta is an ordered topology-event sequence with a canonical
	// encoding and content digest (DESIGN.md §11).
	ChurnDelta = churn.Delta
	// ChurnMapping relates base node IDs to mutated node IDs.
	ChurnMapping = churn.Mapping
	// Replanner repairs cached schedules after topology deltas with
	// reusable state; like a SearchEngine it is single-goroutine.
	Replanner = churn.Replanner
	// ReplannerConfig tunes a Replanner.
	ReplannerConfig = churn.ReplanConfig
	// ChurnReplanResult is a repaired plan plus its blast-radius
	// classification.
	ChurnReplanResult = churn.ReplanResult
	// ChurnStrategy names how a repaired plan was obtained
	// (prefix/incremental/cold).
	ChurnStrategy = churn.Strategy
	// ChurnTrace is a seeded multi-hour churn history against a base
	// instance.
	ChurnTrace = churn.Trace
	// ChurnTraceConfig parameterizes Poisson churn-trace generation.
	ChurnTraceConfig = churn.TraceConfig
	// ChurnTraceEvent is one timed topology event of a trace.
	ChurnTraceEvent = churn.TraceEvent
	// ReplanRequest is one churn-repair service request.
	ReplanRequest = service.ReplanRequest
	// ReplanResponse is one churn-repair service answer.
	ReplanResponse = service.ReplanResponse
	// AggSchedule is a complete convergecast (aggregation) schedule: a
	// routing tree toward the sink plus receiver-safe sender bundles per
	// (slot, channel) (DESIGN.md §18).
	AggSchedule = aggregate.Schedule
	// AggAdvance is one aggregation advance: the senders firing in one
	// (slot, channel) cell.
	AggAdvance = aggregate.Advance
	// AggResult is an aggregation scheduler's outcome.
	AggResult = aggregate.Result
	// AggScheduler plans convergecast schedules; its scratch arenas are
	// reused across calls, so one per goroutine.
	AggScheduler = aggregate.Scheduler
	// AggTree selects the aggregation-tree policy of an AggScheduler.
	AggTree = aggregate.Tree
	// AggReport is the physical outcome of replaying a convergecast
	// schedule.
	AggReport = sim.AggReport
	// AggregateRequest is one convergecast service request.
	AggregateRequest = service.AggregateRequest
	// AggregateResponse is one convergecast service answer.
	AggregateResponse = service.AggregateResponse
	// Trace collects the named phases of one request as a span tree; attach
	// it to a context with TraceContext and the service records cache,
	// search, improve and repair phases into it (DESIGN.md §15). The nil
	// Trace is the disabled tracer — every operation on it is a free no-op.
	Trace = obs.Trace
	// TraceSpan is a handle onto one span of a Trace.
	TraceSpan = obs.Span
	// TraceSnapshot is the immutable export of a finished trace — the JSON
	// schema GET /debug/traces serves.
	TraceSnapshot = obs.TraceSnapshot
	// SpanSnapshot is one exported span of a TraceSnapshot.
	SpanSnapshot = obs.SpanSnapshot
	// TraceRecorder is the always-on flight recorder: bounded ring of the
	// last-N finished traces plus a board of the slowest-N.
	TraceRecorder = obs.Recorder
	// LatencyHistogram is the fixed-edge histogram behind the Prometheus
	// _bucket/_sum/_count series /metrics emits.
	LatencyHistogram = obs.Histogram
	// LatencyHistogramSnapshot is its cumulative point-in-time view.
	LatencyHistogramSnapshot = obs.HistogramSnapshot
)

// The churn event kinds.
const (
	ChurnNodeFail       = churn.NodeFail
	ChurnNodeJoin       = churn.NodeJoin
	ChurnRadiusChange   = churn.RadiusChange
	ChurnPositionJitter = churn.PositionJitter
)

// The aggregation-tree policies.
const (
	// AggTreeSPT routes along the BFS shortest-path tree (default).
	AggTreeSPT = aggregate.TreeSPT
	// AggTreeBounded routes along the degree-bounded SPT variant.
	AggTreeBounded = aggregate.TreeBounded
)

// Typed failures callers (and the HTTP layer's error envelope)
// distinguish from generic request errors.
var (
	// ErrServiceClosed is returned by every service entry point after
	// Close.
	ErrServiceClosed = service.ErrClosed
	// ErrChurnSourceFailed reports a replan delta that fails the broadcast
	// source.
	ErrChurnSourceFailed = churn.ErrSourceFailed
	// ErrChurnDisconnected reports a replan delta that disconnects the
	// network from the source.
	ErrChurnDisconnected = churn.ErrDisconnected
	// ErrChurnLastNode reports a replan delta that removes the last node.
	ErrChurnLastNode = churn.ErrLastNode
)

// NewUDG builds the unit-disk graph over the given positions: nodes are
// adjacent exactly when within the communication radius.
func NewUDG(pos []Point, radius float64) *Graph { return graph.FromUDG(pos, radius) }

// GenerateDeployment draws a connected deployment with a valid source from
// the configuration, rejecting placements until both hold.
func GenerateDeployment(cfg TopologyConfig, seed uint64) (*Deployment, error) {
	return topology.Generate(cfg, seed)
}

// PaperDeployment draws a deployment with the paper's Section V-A setting:
// n nodes, 50×50 sq ft, radius 10 ft, source eccentricity 5–8 hops.
func PaperDeployment(n int, seed uint64) (*Deployment, error) {
	return topology.Generate(topology.PaperConfig(n), seed)
}

// PaperTopologyConfig returns the Section V-A generation parameters for n
// nodes, for callers who want to adjust them.
func PaperTopologyConfig(n int) TopologyConfig { return topology.PaperConfig(n) }

// SyncInstance wraps a graph and source into a round-based instance
// starting at t_s = 1 (the paper's convention).
func SyncInstance(g *Graph, source NodeID) Instance { return core.Sync(g, source) }

// MaxChannels bounds Instance.Channels.
const MaxChannels = core.MaxChannels

// WithChannels returns the instance with K orthogonal frequency channels:
// schedules may then fire up to K mutually-conflicting relay classes in
// one slot, one per channel, and collision detection becomes channel-aware
// (two senders conflict only in the same slot AND channel). K ≤ 1 is the
// paper's single shared channel; with K = 1 every scheduler, digest and
// wire encoding is bit-identical to the single-channel system.
func WithChannels(in Instance, k int) Instance {
	in.Channels = k
	return in
}

// WithSINR returns the instance under the physical (SINR) interference
// model: a transmission decodes at a receiver iff its strongest
// neighboring sender's received power beats β times noise plus the summed
// power of every other concurrent same-channel sender. Requires distinct
// node positions. p = nil restores the paper's protocol model, under which
// every scheduler, digest and wire encoding is bit-identical to the
// pre-SINR system.
func WithSINR(in Instance, p *SINRParams) Instance {
	in.SINR = p
	return in
}

// AsyncInstance wraps a graph, source and wake schedule into a duty-cycle
// instance starting at the source's first wake slot at or after `from`.
func AsyncInstance(g *Graph, source NodeID, wake WakeSchedule, from int) Instance {
	return core.Async(g, source, wake, from)
}

// UniformWake builds the paper's duty-cycle schedule: every node wakes once
// per cycle of r slots at an independent uniform pseudo-random offset.
func UniformWake(n, r int, seed uint64) WakeSchedule {
	return dutycycle.NewUniform(n, r, seed, 0)
}

// AlwaysAwakeWake returns the degenerate synchronous schedule (r = 1).
func AlwaysAwakeWake(n int) WakeSchedule { return dutycycle.AlwaysAwake{Nodes: n} }

// FixedWake builds an explicit periodic wake schedule; slots[u] lists node
// u's wake slots within [0, period).
func FixedWake(period, rate int, slots [][]int) WakeSchedule {
	return dutycycle.NewFixed(period, rate, slots)
}

// StaggeredWake builds the constant-phase duty cycle: each node wakes every
// r slots at a fixed pseudo-random offset (contrast UniformWake, which
// redraws the offset per cycle).
func StaggeredWake(n, r int, seed uint64) WakeSchedule {
	return dutycycle.NewStaggered(n, r, seed)
}

// CWT returns the cycle waiting time t(u,v) of Table I: with u
// transmitting at slot t, the wait until v's next wake slot after t.
func CWT(s WakeSchedule, u, v, t int) int { return dutycycle.CWT(s, u, v, t) }

// OPT returns the exact scheduler over all maximal conflict-free relay
// sets (Eq. 5/6), with default search budget.
func OPT() Scheduler { return core.NewOPT(0, 0) }

// OPTBudget returns OPT with an explicit search budget and per-state move
// cap (≤ 0 selects defaults). Results report Exact=false when truncated.
func OPTBudget(budget, maxSets int) Scheduler { return core.NewOPT(budget, maxSets) }

// GOPT returns the exact scheduler over greedy color classes (Eq. 7/8).
func GOPT() Scheduler { return core.NewGOPT(0) }

// GOPTBudget returns G-OPT with an explicit search budget.
func GOPTBudget(budget int) Scheduler { return core.NewGOPT(budget) }

// EModel returns the paper's practical scheduler: greedy colors selected
// by the largest quadrant estimate (Algorithm 2 + Eq. 10).
func EModel() Scheduler { return core.NewEModel(emodel.TwoPass) }

// EModelOnePass returns the ablation variant that seeds every
// empty-quadrant node immediately instead of edge-first.
func EModelOnePass() Scheduler { return core.NewEModel(emodel.OnePass) }

// EnergyAware returns the Section VII "energy saving" extension: Eq. 10's
// selection with ties broken toward fewer transmitters.
func EnergyAware() Scheduler { return core.NewEnergyAware() }

// MaxCoverage returns the ablation policy that always fires the color with
// the most uncovered receivers.
func MaxCoverage() Scheduler {
	return core.NewPolicy("max-coverage", core.MaxCoverageRule{})
}

// FirstColor returns the ablation policy that always fires greedy color 1.
func FirstColor() Scheduler {
	return core.NewPolicy("first-color", core.FirstColorRule{})
}

// Baseline26 returns the round-based BFS-layer baseline of Chen et al.
// (the paper's 26-approximation comparison point).
func Baseline26() Scheduler { return baseline.New26() }

// Baseline17 returns the duty-cycle BFS-layer baseline of Jiao et al.
// (the paper's 17-approximation comparison point).
func Baseline17() Scheduler { return baseline.New17() }

// BuildETable constructs the E₁..E₄ quadrant estimates for an instance —
// hop counts in the synchronous system, mean cycle waiting times in the
// duty-cycle system (Algorithm 2, Eq. 9/11).
func BuildETable(in Instance) *ETable {
	if in.Wake != nil && in.Wake.Rate() > 1 {
		return emodel.BuildAsync(in.G, in.Wake)
	}
	return emodel.BuildSync(in.G)
}

// Replay executes a schedule against the interference physics and reports
// coverage, latency, collisions, and radio usage.
func Replay(in Instance, s *Schedule) (*Report, error) { return sim.Replay(in, s) }

// LocalizedRun executes the distributed 2-hop scheme of Section VII
// (future work) online against the physics.
func LocalizedRun(in Instance) (*Report, *Schedule, error) { return localized.Run(in) }

// IIDLoss builds a deterministic channel that drops each frame
// independently with the given probability.
func IIDLoss(rate float64, seed uint64) LossFunc { return sim.IIDLoss(rate, seed) }

// ReplayLossy executes an offline schedule over a lossy channel; lost
// relays strand their subtrees, quantifying the fragility of offline plans.
func ReplayLossy(in Instance, s *Schedule, loss LossFunc) (*LossyReport, error) {
	return sim.ReplayLossy(in, s, loss)
}

// LocalizedRunLossy executes the localized scheme over a lossy channel;
// it retransmits naturally and completes at a latency/energy premium.
func LocalizedRunLossy(in Instance, loss LossFunc) (*LossyReport, *Schedule, error) {
	return localized.RunLossy(in, loss)
}

// AblationSelection compares color-selection rules (DESIGN.md §7).
func AblationSelection(cfg ExperimentConfig) (*Ablation, error) {
	return experiments.AblationSelection(cfg)
}

// AblationBudget sweeps the G-OPT search budget.
func AblationBudget(cfg ExperimentConfig, budgets []int) (*Ablation, error) {
	return experiments.AblationBudget(cfg, budgets)
}

// AblationRobustness compares the offline plan and the localized scheme
// over lossy channels.
func AblationRobustness(cfg ExperimentConfig, rates []float64) (*Ablation, error) {
	return experiments.AblationRobustness(cfg, rates)
}

// AblationWakeFamily compares uniform-per-cycle and staggered wake
// schedules at the same duty-cycle rate.
func AblationWakeFamily(cfg ExperimentConfig) (*Ablation, error) {
	return experiments.AblationWakeFamily(cfg)
}

// Mica2 returns the Mica2/CC1000 radio profile used to convert slots into
// wall-clock time and radio usage into energy.
func Mica2() Radio { return mote.Mica2() }

// SyncLatencyBound returns Theorem 1's synchronous bound d+2.
func SyncLatencyBound(d int) int { return core.SyncLatencyBound(d) }

// AsyncLatencyBound returns Theorem 1's duty-cycle bound 2r(d+2).
func AsyncLatencyBound(r, d int) int { return core.AsyncLatencyBound(r, d) }

// Figure3 regenerates the paper's Figure 3 (synchronous P(A) vs density).
func Figure3(cfg ExperimentConfig) (*Figure, error) { return experiments.Figure3(cfg) }

// Figure4 regenerates Figure 4 (duty cycle, r = 10).
func Figure4(cfg ExperimentConfig) (*Figure, error) { return experiments.Figure4(cfg) }

// Figure5 regenerates Figure 5 (analytical bounds, r = 10).
func Figure5(cfg ExperimentConfig) (*Figure, error) { return experiments.Figure5(cfg) }

// Figure6 regenerates Figure 6 (light duty cycle, r = 50).
func Figure6(cfg ExperimentConfig) (*Figure, error) { return experiments.Figure6(cfg) }

// Figure7 regenerates Figure 7 (analytical bounds, r = 50).
func Figure7(cfg ExperimentConfig) (*Figure, error) { return experiments.Figure7(cfg) }

// FigureByID regenerates figure 3–7 by paper number.
func FigureByID(id int, cfg ExperimentConfig) (*Figure, error) {
	return experiments.ByID(id, cfg)
}

// Summarize derives the Section V-C claims from regenerated figures.
func Summarize(figs ...*Figure) *ExperimentSummary { return experiments.Summarize(figs...) }

// TraceGOPT derives a Table II/III/IV-style decision table: every state on
// the optimal greedy-color path with each color's M value.
func TraceGOPT(in Instance, budget int) ([]TraceRow, error) { return trace.GOPT(in, budget) }

// TraceTree derives the paper's full decision table: every state reachable
// by committing to any greedy color, breadth-first with duplicates merged
// (Tables III and IV print this whole tree). maxRows ≤ 0 defaults to 256.
func TraceTree(in Instance, budget, maxRows int) ([]TraceRow, error) {
	return trace.Tree(in, budget, maxRows)
}

// RenderTrace prints trace rows in the paper's table layout; name may be
// nil for numeric labels.
func RenderTrace(rows []TraceRow, name func(NodeID) string) string {
	return trace.Render(rows, name)
}

// Figure1 returns the paper's Figure 1 example network and its source.
func Figure1() (*Graph, NodeID) { return paperfig.Figure1() }

// Figure2 returns the paper's Figure 2 example network and its source.
func Figure2() (*Graph, NodeID) { return paperfig.Figure2() }

// TableIVWake returns the explicit wake schedule of the paper's Table IV
// duty-cycle example (use with Figure2 and start slot 2).
func TableIVWake() WakeSchedule { return paperfig.TableIVWake() }

// EncodeDeployment serializes a deployment to JSON for archival/sharing.
func EncodeDeployment(d *Deployment) ([]byte, error) { return graphio.EncodeDeployment(d) }

// DecodeDeployment rebuilds a deployment from EncodeDeployment output,
// verifying connectivity and stored metadata.
func DecodeDeployment(data []byte) (*Deployment, error) { return graphio.DecodeDeployment(data) }

// EncodeSchedule serializes a schedule to JSON.
func EncodeSchedule(s *Schedule) ([]byte, error) { return graphio.EncodeSchedule(s) }

// DecodeSchedule rebuilds a schedule; Validate it against its instance
// before trusting it.
func DecodeSchedule(data []byte) (*Schedule, error) { return graphio.DecodeSchedule(data) }

// EncodeInstance serializes a broadcast instance (graph, source, start,
// wake schedule) for shipping to the plan service or archival.
func EncodeInstance(in Instance) ([]byte, error) { return graphio.EncodeInstance(in) }

// DecodeInstance rebuilds and validates an instance from EncodeInstance
// output.
func DecodeInstance(data []byte) (Instance, error) { return graphio.DecodeInstance(data) }

// InstanceDigest computes the content address of an instance: a SHA-256
// over a canonical encoding of the graph, source, start slot, pre-covered
// set and wake-schedule parameters. Equal instances digest equally across
// processes; the plan cache is keyed by it.
func InstanceDigest(in Instance) (Digest, error) { return graphio.InstanceDigest(in) }

// EncodeResult serializes a scheduler result (schedule included) in the
// same schema the plan service's HTTP API returns.
func EncodeResult(res *Result) ([]byte, error) { return graphio.EncodeResult(res) }

// DecodeResult rebuilds a result; Validate the inner schedule against its
// instance before trusting it.
func DecodeResult(data []byte) (*Result, error) { return graphio.DecodeResult(data) }

// NewReusableGOPT returns a G-OPT engine whose arenas (scratch frames,
// memo storage, bitset pool) are recycled across Schedule calls — the
// per-worker scheduler of the serving layer. Not safe for concurrent use.
func NewReusableGOPT(budget int) *SearchEngine { return core.NewGOPT(budget).NewEngine() }

// NewReusableOPT returns a reusable OPT engine; see NewReusableGOPT.
func NewReusableOPT(budget, maxSets int) *SearchEngine {
	return core.NewOPT(budget, maxSets).NewEngine()
}

// NewService starts a concurrent plan service: a content-addressed,
// LRU-bounded, singleflight-deduplicated schedule cache in front of a
// sharded worker pool of reusable engines. Close it when done.
func NewService(cfg ServiceConfig) *PlanService { return service.New(cfg) }

// NewTrace starts a request trace whose root span carries the endpoint
// name. Finish it to obtain the immutable snapshot.
func NewTrace(endpoint string) *Trace { return obs.NewTrace(endpoint) }

// TraceContext returns ctx carrying the trace; service requests planned
// under it record their phases into the trace.
func TraceContext(ctx context.Context, t *Trace) context.Context { return obs.NewContext(ctx, t) }

// TraceFromContext returns the trace carried by ctx, or nil (the disabled
// tracer) when none is attached.
func TraceFromContext(ctx context.Context) *Trace { return obs.FromContext(ctx) }

// NewTraceRecorder builds a flight recorder retaining the last recentN
// and slowest slowestN traces; values ≤ 0 select the defaults (64/16).
func NewTraceRecorder(recentN, slowestN int) *TraceRecorder {
	return obs.NewRecorder(recentN, slowestN)
}

// FormatTrace renders a trace snapshot as an indented span tree with
// durations and attributes — the form mlb-load -trace prints.
func FormatTrace(s *TraceSnapshot) string { return obs.FormatTrace(s) }

// NewLatencyHistogram builds a fixed-edge latency histogram over ascending
// nanosecond bucket bounds; nil selects the default power-of-two edges.
func NewLatencyHistogram(edgesNs []int64) *LatencyHistogram { return obs.NewHistogram(edgesNs) }

// WritePromHistogram emits one histogram family in Prometheus text format
// (# HELP/# TYPE, cumulative _bucket series with le edges in seconds,
// _sum, _count). labels, when non-empty, is a rendered label list without
// braces merged into every series.
func WritePromHistogram(w io.Writer, name, help, labels string, s LatencyHistogramSnapshot) {
	obs.WritePromHistogram(w, name, help, labels, s)
}

// WritePromHistogramSeries emits only the series lines of one histogram —
// no header — so several label sets of the same family can share a single
// # HELP/# TYPE written once.
func WritePromHistogramSeries(w io.Writer, name, labels string, s LatencyHistogramSnapshot) {
	obs.WritePromHistogramSeries(w, name, labels, s)
}

// WritePromCounter emits one unlabeled counter with HELP/TYPE lines.
func WritePromCounter(w io.Writer, name, help string, v int64) {
	obs.WritePromCounter(w, name, help, v)
}

// WritePromGauge emits one unlabeled gauge with HELP/TYPE lines.
func WritePromGauge(w io.Writer, name, help string, v int64) {
	obs.WritePromGauge(w, name, help, v)
}

// NewImprover returns a reusable anytime schedule improver. Like the
// search engines, its arenas survive across calls and it must not be
// shared between goroutines.
func NewImprover() *Improver { return improve.New() }

// NewReplayer returns a reusable ideal-channel replayer; reports alias its
// buffers and stay valid until its next call.
func NewReplayer() *Replayer { return sim.NewReplayer() }

// NewLossyReplayer returns a reusable lossy-channel replayer.
func NewLossyReplayer() *LossyReplayer { return sim.NewLossyReplayer() }

// NewReliabilityEstimator returns a reusable Monte-Carlo estimator — the
// engine behind EstimateReliability and the service's /v1/validate.
func NewReliabilityEstimator() *ReliabilityEstimator { return reliability.NewEstimator() }

// EstimateReliability batches seeded lossy replays of a schedule and
// aggregates delivery ratio, per-node coverage probability with Wilson
// intervals, and the latency distribution (DESIGN.md §10).
func EstimateReliability(in Instance, s *Schedule, model ReliabilityLossModel, cfg ReliabilityConfig) (*ReliabilityReport, error) {
	return reliability.Estimate(in, s, model, cfg)
}

// RepairSchedule greedily appends conflict-aware rebroadcast slots until
// the Monte-Carlo estimated delivery ratio reaches cfg.Target, reporting
// the latency penalty.
func RepairSchedule(in Instance, s *Schedule, model ReliabilityLossModel, cfg RepairConfig) (*RepairResult, error) {
	return reliability.Repair(in, s, model, cfg)
}

// EncodeReliabilityReport serializes a Monte-Carlo reliability report in
// the canonical schema /v1/validate and mlb-validate emit.
func EncodeReliabilityReport(rep *ReliabilityReport) ([]byte, error) {
	return graphio.EncodeReliabilityReport(rep)
}

// DecodeReliabilityReport rebuilds a report from EncodeReliabilityReport
// output.
func DecodeReliabilityReport(data []byte) (*ReliabilityReport, error) {
	return graphio.DecodeReliabilityReport(data)
}

// ApplyChurn applies a topology delta to a unit-disk instance, returning
// the mutated instance and the base→mutated node mapping (DESIGN.md §11).
func ApplyChurn(base Instance, d ChurnDelta) (Instance, ChurnMapping, error) {
	return churn.Apply(base, d)
}

// NewReplanner builds a reusable churn replanner: blast-radius
// classification plus residual search with cold-search fallback. Not safe
// for concurrent use; the plan service gives each worker its own.
func NewReplanner(cfg ReplannerConfig) *Replanner { return churn.NewReplanner(cfg) }

// GenerateChurnTrace draws a seeded Poisson churn trace against the base
// instance; every event is guaranteed applicable in sequence.
func GenerateChurnTrace(base Instance, cfg ChurnTraceConfig, seed uint64) (*ChurnTrace, error) {
	return churn.GenerateTrace(base, cfg, seed)
}

// ChurnDeltaDigest computes the content address of a delta; the serving
// layer keys repaired plans by (instance digest, delta digest).
func ChurnDeltaDigest(d ChurnDelta) (Digest, error) { return churn.DeltaDigest(d) }

// EncodeChurnDelta serializes a delta in the schema POST /v1/replan
// accepts.
func EncodeChurnDelta(d ChurnDelta) ([]byte, error) { return churn.EncodeDelta(d) }

// DecodeChurnDelta rebuilds a delta, validating every event.
func DecodeChurnDelta(data []byte) (ChurnDelta, error) { return churn.DecodeDelta(data) }

// ScheduleAggregate plans a conflict-aware minimum-latency convergecast:
// every node's reading routed to the sink (the instance's Source) along
// an aggregation tree with receiver-safe sender bundles (DESIGN.md §18).
// One-shot convenience; reuse an AggScheduler value across calls for warm
// arenas.
func ScheduleAggregate(in Instance) (*AggResult, error) {
	var s AggScheduler
	return s.Schedule(in)
}

// ReplayAggregate executes a convergecast schedule against the slot
// physics and reports what actually reached the sink.
func ReplayAggregate(in Instance, s *AggSchedule) (*AggReport, error) {
	return sim.ReplayAggregate(in, s)
}

// AggInstanceDigest computes the content address of an instance as an
// aggregation problem — the broadcast digest stream plus an "agg" tag, so
// the two workloads never alias in any cache.
func AggInstanceDigest(in Instance) (Digest, error) { return graphio.AggInstanceDigest(in) }

// EncodeAggSchedule serializes an aggregation schedule.
func EncodeAggSchedule(s *AggSchedule) ([]byte, error) { return graphio.EncodeAggSchedule(s) }

// DecodeAggSchedule rebuilds an aggregation schedule; Validate it against
// its instance before trusting it.
func DecodeAggSchedule(data []byte) (*AggSchedule, error) { return graphio.DecodeAggSchedule(data) }

// EncodeAggResult serializes an aggregation result in the schema the
// /v1/aggregate endpoint embeds.
func EncodeAggResult(res *AggResult) ([]byte, error) { return graphio.EncodeAggResult(res) }

// DecodeAggResult rebuilds an aggregation result from EncodeAggResult
// output.
func DecodeAggResult(data []byte) (*AggResult, error) { return graphio.DecodeAggResult(data) }

// EncodeChurnTrace serializes a churn trace.
func EncodeChurnTrace(tr *ChurnTrace) ([]byte, error) { return churn.EncodeTrace(tr) }

// DecodeChurnTrace rebuilds a churn trace, validating events and ordering.
func DecodeChurnTrace(data []byte) (*ChurnTrace, error) { return churn.DecodeTrace(data) }
