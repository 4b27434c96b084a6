// Command bench is the end-to-end benchmark of mlb-serve: it builds the
// server from source, starts it on a loopback port with default flags,
// drives one or all workloads over HTTP, checks every response
// independently of the server, and prints every metric by name and unit.
//
// Usage, from the repository root:
//
//	bash bench/run.sh [--workload all|plan-warm|cold-sync|cold-duty|mixed-open]
//	                  [--seed 1] [--seconds 25] [--trace 0|1]
//	                  [--out result.json] [--trace-out bench-trace.json]
//
// or `go run .` from bench/. --trace 1 also replays each workload's set-up
// and check prefix in-process with bench-side spans around every layer
// call, prints the per-layer ledger, and writes the spans to --trace-out.
// The last line of standard output is one JSON object: correct,
// attempted, failed and the end-to-end metrics (--trace 0) or the
// per-layer metrics (--trace 1). bench/README.md describes the workloads,
// the metrics and how to compare two commits.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

// workload is one traffic mix.
type workload struct {
	name string
	why  string
	// rate > 0 selects an open loop with Poisson arrivals at rate req/s;
	// otherwise `senders` clients run a closed loop, each pausing think
	// between a response and its next request.
	rate  float64
	think time.Duration
	// prefix is the check prefix M: plan_latency_slots averages over the
	// window's first M requests, which every run completes.
	prefix int
	// traced is how many of those the traced run replays.
	traced int
	// slo is the latency limit behind slo_met_ratio. Each sits at or a
	// little above the workload's usual p99: far enough that host noise moves
	// the ratio by well under its bound, close enough that a growing tail
	// shows. A limit every request meets would read 1 whatever the change.
	slo time.Duration
}

var workloads = []*workload{
	// plan-warm pauses its clients: back to back, its 0.4 ms requests
	// saturate both cores, and the host's noise then moved p50 by up to
	// 35% across runs; at about a quarter load it moves a third less.
	{name: "plan-warm", think: time.Millisecond, prefix: 2000, traced: 2000, slo: 3 * time.Millisecond,
		why: "cache hits on 24 primed sync deployments (n 150/300/600), 1 ms client think time: HTTP, JSON, the O(n) digest, cache lookup and encoding do all the work; no search"},
	{name: "cold-sync", prefix: 2000, traced: 400, slo: 60 * time.Millisecond,
		why: "a new sync deployment per request (n 150/300): every request misses the cache and G-OPT search does most of the work"},
	{name: "cold-duty", prefix: 800, traced: 120, slo: 60 * time.Millisecond,
		why: "the paper's duty-cycle system (r=10, n 80/100), new deployment per request: the search waits on wake times and its E-model incumbent dominates"},
	{name: "mixed-open", rate: 150, prefix: 1000, traced: 1000, slo: 25 * time.Millisecond,
		why: "open loop, Poisson 150 req/s, every endpoint over 16 primed n=300 bases: cache reads beside writes, Monte-Carlo, churn and convergecast"},
}

// metric is one measured value. OK is false when the percentile rule
// withholds a percentile; such a metric is printed as n/a and left out of
// the JSON line.
type metric struct {
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	OK    bool    `json:"ok"`
	// N is the sample count behind a percentile.
	N int `json:"n,omitempty"`
}

// endToEnd are the end-to-end metrics, in print order. BENCHMARK.json
// names the same set.
var endToEnd = []string{
	"throughput_rps", "latency_p50_ms", "latency_p99_ms", "slo_met_ratio",
	"plan_latency_slots", "server_cpu_ms_per_req", "server_peak_rss_mb", "setup_s",
}

// layerMetrics are the per-layer metrics, in print order. listed marks the
// ones BENCHMARK.json names: those are measured on every workload. The rest
// time layers only mixed-open exercises, or need more samples than the
// smaller prefixes give, and appear in the ledger only.
var layerMetrics = []struct {
	name   string
	listed bool
}{
	{"http.self_us_p50", true},
	{"http.resp_bytes_mean", true},
	{"service.self_us_p50", true},
	{"service.plan_hit_ratio", true},
	{"service.searches_per_req", true},
	{"graphio.digest_us_p50", true},
	{"graphio.decode_instance_us_p50", false},
	{"graphio.encode_us_p50", true},
	{"topology.generate_us_p50", true},
	{"plancache.get_us_p50", true},
	{"core.search_ms_p50", true},
	{"core.search_ms_p90", false},
	{"core.allocs_per_search", true},
	{"core.states_per_search", true},
	{"core.memo_hit_ratio", true},
	{"aggregate.schedule_us_p50", false},
	{"churn.replan_us_p50", false},
	{"churn.noncold_ratio", false},
	{"reliability.ns_per_trial", false},
	{"runtime.gc_per_1k_req", true},
	{"loadgen.lag_p99_ms", true},
	{"loadgen.cpu_ms_per_req", true},
	{"host.steal_pct", true},
	{"host.calm_bins_pct", true},
	{"trace.overhead_pct", true},
	{"trace.accounted_pct", true},
}

// Each workload sets up at least minSetups times and until setupTime has
// passed; setup_s is the median, and the last server carries the window.
// A set-up of a few milliseconds so repeats often enough for its median to
// hold still.
const (
	minSetups = 5
	setupTime = time.Second
)

type config struct {
	workload string
	seed     uint64
	window   time.Duration
	trace    bool
	out      string
	traceOut string
	// binDir receives the mlb-serve build; empty selects .bench_build/bin.
	binDir string
}

func parseFlags(args []string, stderr io.Writer) (config, error) {
	var cfg config
	var seconds, trace int
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&cfg.workload, "workload", "all", "workload to run: all, "+strings.Join(workloadNames(), ", "))
	fs.Uint64Var(&cfg.seed, "seed", 1, "seed every input is drawn from")
	fs.IntVar(&seconds, "seconds", 25, "measured window per workload, seconds")
	fs.IntVar(&trace, "trace", 0, "1 adds the traced in-process replay and reports per-layer metrics")
	fs.StringVar(&cfg.out, "out", "", "also write every metric of every workload here as JSON")
	fs.StringVar(&cfg.traceOut, "trace-out", "bench-trace.json", "where --trace 1 writes its spans")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if fs.NArg() > 0 {
		return cfg, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if seconds < 1 {
		return cfg, fmt.Errorf("--seconds %d: need at least 1", seconds)
	}
	if trace != 0 && trace != 1 {
		return cfg, fmt.Errorf("--trace %d: want 0 or 1", trace)
	}
	if cfg.workload != "all" && findWorkload(cfg.workload) == nil {
		return cfg, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	cfg.window, cfg.trace = time.Duration(seconds)*time.Second, trace == 1
	return cfg, nil
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func main() {
	cfg, err := parseFlags(os.Args[1:], os.Stderr)
	if err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintln(os.Stderr, "bench:", err)
		}
		os.Exit(2)
	}
	os.Exit(run(cfg, os.Stdout, os.Stderr))
}

// result is one workload's outcome.
type result struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Correct   bool              `json:"correct"`
	Metrics   map[string]metric `json:"metrics"`
	Spans     []span            `json:"spans,omitempty"`
}

// envRecord identifies the machine and commit every run was measured on.
type envRecord struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func run(cfg config, stdout, stderr io.Writer) int {
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	root, err := repoRoot()
	if err != nil {
		return fail(err)
	}
	if cfg.binDir == "" {
		cfg.binDir = filepath.Join(root, ".bench_build", "bin")
	}
	bin, err := buildServer(root, cfg.binDir)
	if err != nil {
		return fail(err)
	}
	env := envRecord{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: gitCommit(root)}
	fmt.Fprintf(stdout, "env: nproc=%d GOMAXPROCS=%d go=%s commit=%s\n", env.NProc, env.GOMAXPROCS, env.GoVersion, env.Commit)

	selected := workloads
	if cfg.workload != "all" {
		selected = []*workload{findWorkload(cfg.workload)}
	}
	var results []*result
	for _, w := range selected {
		res, err := runWorkload(w, cfg, bin, stdout, stderr)
		if err != nil {
			return fail(fmt.Errorf("%s: %w", w.name, err))
		}
		results = append(results, res)
	}

	if cfg.out != "" {
		if err := writeJSON(cfg.out, struct {
			Env     envRecord `json:"env"`
			Results []*result `json:"results"`
		}{env, stripSpans(results)}); err != nil {
			return fail(err)
		}
	}
	if cfg.trace {
		if err := writeJSON(cfg.traceOut, struct {
			Env  envRecord `json:"env"`
			Runs []*result `json:"runs"`
		}{env, results}); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "wrote %s\n", cfg.traceOut)
	}
	line, err := json.Marshal(summaryLine(results, cfg.trace))
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

func stripSpans(rs []*result) []*result {
	out := make([]*result, len(rs))
	for i, r := range rs {
		c := *r
		c.Spans = nil
		out[i] = &c
	}
	return out
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type line struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]lineMetric `json:"metrics"`
}

// summaryLine is the final JSON line: the end-to-end metrics, or the
// listed per-layer metrics under --trace 1. With several workloads each
// name is prefixed by its workload.
func summaryLine(rs []*result, trace bool) line {
	names := endToEnd
	if trace {
		names = nil
		for _, l := range layerMetrics {
			if l.listed {
				names = append(names, l.name)
			}
		}
	}
	out := line{Correct: true, Metrics: make(map[string]lineMetric)}
	for _, r := range rs {
		out.Correct = out.Correct && r.Correct
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		for _, name := range names {
			m, ok := r.Metrics[name]
			if !ok || !m.OK {
				continue
			}
			key := name
			if len(rs) > 1 {
				key = r.Workload + "/" + name
			}
			out.Metrics[key] = lineMetric{Value: m.Value, Unit: m.Unit}
		}
	}
	return out
}

// runWorkload sets the workload up setupRuns times, runs its warm-up and
// window against the last server, checks every distinct response, and
// under --trace 1 replays it in-process.
func runWorkload(w *workload, cfg config, bin string, stdout, stderr io.Writer) (*result, error) {
	in, err := buildInputs(w, cfg.seed, cfg.window)
	if err != nil {
		return nil, fmt.Errorf("inputs: %w", err)
	}
	srv, setups, err := setUp(bin, in.prime)
	if err != nil {
		return nil, err
	}
	win, err := measure(srv, w, in, cfg.window)
	srv.stop()
	if err != nil {
		return nil, err
	}

	reqAt := func(i int) request { r, _ := in.window.get(i); return r }
	verdicts := checkAll(win.rec.bodies, reqAt, newMirror(in.bases))
	for _, e := range append(win.warm.errs, win.rec.errs...) {
		fmt.Fprintf(stderr, "bench: %s: request failed: %s\n", w.name, e)
	}
	for id, v := range verdicts {
		if v.err != nil {
			fmt.Fprintf(stderr, "bench: %s: request %d: check failed: %v\n", w.name, win.rec.bodies[id].idx, v.err)
		}
	}
	res := win.result(w, verdicts, reqAt)
	res.Seed = cfg.seed
	slices.Sort(setups)
	res.Metrics["setup_s"] = metric{Unit: "s", Value: setups[len(setups)/2], OK: true, N: len(setups)}

	if cfg.trace {
		reqs := slices.Clone(in.prime)
		for i := 0; i < min(w.traced, w.prefix, res.Attempted); i++ {
			reqs = append(reqs, reqAt(i))
		}
		spans, layers, err := replay(reqs, len(in.prime))
		if err != nil {
			return nil, err
		}
		for name, m := range layers {
			res.Metrics[name] = m
		}
		res.Spans = spans
	}
	printResult(stdout, w, cfg, res, win.elapsed)
	return res, nil
}

// setUp starts a server and primes it, repeatedly, and returns the last
// server with every set-up's duration in seconds.
func setUp(bin string, prime []request) (*server, []float64, error) {
	var srv *server
	var setups []float64
	for begin := time.Now(); len(setups) < minSetups || time.Since(begin) < setupTime; {
		if srv != nil {
			srv.stop()
		}
		t0 := time.Now()
		var err error
		if srv, err = startServer(bin); err != nil {
			return nil, nil, err
		}
		for _, r := range prime {
			if _, err := srv.post(r.path(), r.body); err != nil {
				srv.stop()
				return nil, nil, fmt.Errorf("priming: %w", err)
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	return srv, setups, nil
}

// windowRun is what one warm-up and window recorded.
type windowRun struct {
	warm, rec     *recorder
	elapsed       time.Duration
	bins          []bin
	selfCPU       time.Duration
	before, after map[string]float64 // /metrics around the window
	rss           float64
}

// measure runs the warm-up and the window against srv.
func measure(srv *server, w *workload, in *inputs, window time.Duration) (*windowRun, error) {
	send, closeConns := httpSender(srv.url)
	defer closeConns()
	win := &windowRun{warm: newRecorder(false), rec: newRecorder(true)}
	drive(in.warmup, send, time.Now(), warmupDuration, w.think, win.warm)

	var err error
	if win.before, err = srv.metrics(); err != nil {
		return nil, err
	}
	self0 := selfCPU()
	start := time.Now()
	var binErr error
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		win.bins, binErr = sampleBins(srv, start, window)
	}()
	win.elapsed = drive(in.window, send, start, window, w.think, win.rec)
	<-sampled
	win.selfCPU = selfCPU() - self0
	if binErr != nil {
		return nil, binErr
	}
	if win.after, err = srv.metrics(); err != nil {
		return nil, err
	}
	win.rss, err = srv.peakRSS()
	return win, err
}

// result derives the end-to-end metrics and the window's per-layer
// metrics from the recorded responses and their verdicts. The timing
// metrics cover the calm bins; failures count over the whole window.
func (win *windowRun) result(w *workload, verdicts []checked, reqAt func(int) request) *result {
	resps := win.rec.responses()
	slices.SortFunc(resps, func(a, b response) int { return a.idx - b.idx })
	res := &result{Workload: w.name, Attempted: len(resps), Correct: true, Metrics: make(map[string]metric)}
	for _, r := range win.warm.responses() {
		if r.status != 200 {
			res.Correct = false
		}
	}
	passed := func(r response) bool { return r.body >= 0 && verdicts[r.body].err == nil }
	nbins := len(win.bins)
	samples := make([]int, nbins)
	for _, r := range resps {
		if passed(r) {
			samples[binOf(r.at, nbins)]++
		}
	}
	keep := calmBins(win.bins, samples)
	var steal sample
	var calmBinCount int
	var calmCPU time.Duration
	for k, b := range win.bins {
		steal.add(b.stealPct)
		if keep[k] {
			calmBinCount++
			calmCPU += b.serverCPU
		}
	}

	var lat, self, lag, size sample
	var ok, attempted, sloMet int // in the calm bins
	prefix := min(w.prefix, len(resps))
	slots := make(map[string]*sample) // schedule latencies in the prefix, by endpoint
	for _, r := range resps {
		size.add(float64(r.size))
		lag.addDur(r.lag, time.Millisecond)
		inCalm := keep[binOf(r.at, nbins)]
		if inCalm {
			attempted++
		}
		if !passed(r) {
			res.Failed++
			continue
		}
		self.addDur(r.rtt-r.elapsed, time.Microsecond)
		if inCalm {
			ok++
			lat.addDur(r.lat, time.Millisecond)
			if r.lat <= w.slo {
				sloMet++
			}
		}
		if r.idx < prefix && verdicts[r.body].slots >= 0 {
			req := reqAt(r.idx)
			path := req.path()
			if slots[path] == nil {
				slots[path] = &sample{}
			}
			slots[path].add(float64(verdicts[r.body].slots))
		}
	}
	res.Correct = res.Correct && res.Failed == 0

	put := func(name, unit string, v float64) {
		res.Metrics[name] = metric{Unit: unit, Value: v, OK: true}
	}
	pct := func(name, unit string, s *sample, p int) {
		v, okp := s.pct(p)
		res.Metrics[name] = metric{Unit: unit, Value: v, OK: okp, N: s.n()}
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	put("throughput_rps", "req/s", float64(ok)/(float64(calmBinCount)*binWidth.Seconds()))
	// p99 first: pct sorts lat, and the chunks need request order.
	p99, okp := chunkedPercentile(lat.v, 99)
	res.Metrics["latency_p99_ms"] = metric{Unit: "ms", Value: p99, OK: okp, N: lat.n()}
	pct("latency_p50_ms", "ms", &lat, 50)
	put("error_rate", "ratio", ratio(float64(res.Failed), float64(len(resps))))
	put("slo_met_ratio", "ratio", ratio(float64(sloMet), float64(attempted)))
	res.Metrics["plan_latency_slots"] = planLatency(slots)
	put("server_cpu_ms_per_req", "ms", ratio(ms(calmCPU), float64(ok)))
	put("server_peak_rss_mb", "MB", win.rss)

	d := func(name string) float64 { return win.after[name] - win.before[name] }
	pct("http.self_us_p50", "us", &self, 50)
	mean, _ := size.mean()
	put("http.resp_bytes_mean", "bytes", mean)
	hits, misses := d("mlbs_plan_cache_hits_total"), d("mlbs_plan_cache_misses_total")
	put("service.plan_hit_ratio", "ratio", ratio(hits, hits+misses))
	put("service.searches_per_req", "ratio", ratio(d("mlbs_plan_searches_total"), d("mlbs_plan_requests_total")))
	noncold := d("mlbs_replan_prefix_total") + d("mlbs_replan_incremental_total")
	put("churn.noncold_ratio", "ratio", ratio(noncold, noncold+d("mlbs_replan_cold_total")))
	put("runtime.gc_per_1k_req", "count", 1000*ratio(d("mlbs_gc_cycles_total"), float64(len(resps))))
	pct("loadgen.lag_p99_ms", "ms", &lag, 99)
	put("loadgen.cpu_ms_per_req", "ms", ratio(ms(win.selfCPU), float64(len(resps))))
	stealMean, _ := steal.mean()
	put("host.steal_pct", "%", stealMean)
	put("host.calm_bins_pct", "%", 100*ratio(float64(calmBinCount), float64(nbins)))
	return res
}

// planLatency averages the mean schedule latency of each endpoint that
// returns a schedule, so that mixed-open's value does not move with how
// many requests of each kind its seed drew.
func planLatency(byPath map[string]*sample) metric {
	m := metric{Unit: "slots"}
	var means sample
	for _, path := range slices.Sorted(maps.Keys(byPath)) {
		v, _ := byPath[path].mean()
		means.add(v)
		m.N += byPath[path].n()
	}
	m.Value, m.OK = means.mean()
	return m
}

func printResult(out io.Writer, w *workload, cfg config, res *result, elapsed time.Duration) {
	loop := fmt.Sprintf("closed loop, %d clients, %v think time", senders, w.think)
	if w.rate > 0 {
		loop = fmt.Sprintf("open loop, Poisson %g req/s, %d senders", w.rate, senders)
	}
	fmt.Fprintf(out, "\n== %s (seed %d): %s, %v window after %v warm-up, measured %.3fs\n",
		w.name, cfg.seed, loop, cfg.window, warmupDuration, elapsed.Seconds())
	fmt.Fprintf(out, "   %s\n", w.why)
	fmt.Fprintf(out, "   attempted %d, failed %d, correct %v; timings over the calm %.0f%% of the window's %v bins\n",
		res.Attempted, res.Failed, res.Correct, res.Metrics["host.calm_bins_pct"].Value, binWidth)
	fmt.Fprintln(out, "   end to end:")
	for _, name := range append(slices.Clone(endToEnd), "error_rate") {
		printMetric(out, name, res.Metrics[name])
	}
	fmt.Fprintln(out, "   layers:")
	for _, l := range layerMetrics {
		if m, ok := res.Metrics[l.name]; ok {
			printMetric(out, l.name, m)
		}
	}
}

func printMetric(out io.Writer, name string, m metric) {
	v := "n/a"
	if m.OK {
		v = strconv.FormatFloat(m.Value, 'g', 6, 64)
	}
	note := ""
	if m.N > 0 || !m.OK {
		note = fmt.Sprintf("  (n=%d)", m.N)
	}
	fmt.Fprintf(out, "     %-32s %14s %s%s\n", name, v, m.Unit, note)
}

// gitCommit reads the checked-out commit from .git without running git,
// which would search parent directories; "unknown" outside a git checkout.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs")); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if sha, name, ok := strings.Cut(l, " "); ok && name == ref {
				return sha
			}
		}
	}
	return "unknown"
}
