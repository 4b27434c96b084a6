package core

// Engine is a reusable search scheduler: it runs the same branch-and-bound
// as its parent Search but keeps the frame arena, bitset pool, hop-bound
// level sets and memo storage across calls, so a warm engine schedules
// instance after instance without re-growing its arenas — the serving
// layer's per-worker allocation discipline. Results returned from an
// Engine are immutable; the engine never writes into a schedule it has
// handed out.
//
// An Engine is NOT safe for concurrent use. Give each worker goroutine its
// own (the service layer does exactly that); the parent Search remains
// safe to share because Search.Schedule builds a fresh engine per call.
type Engine struct {
	search *Search
	e      *engine
	// inc is the reusable incumbent engine for maximal-set searches: OPT
	// seeds its upper bound with a full G-OPT run, which would otherwise
	// pay a cold engine per call.
	inc *Engine
}

// NewEngine returns a reusable engine for this search configuration.
func (s *Search) NewEngine() *Engine { return &Engine{search: s} }

// Name implements Scheduler.
func (en *Engine) Name() string { return en.search.name }

// ScheduleWith runs one search with per-call configuration overrides,
// recycling the engine's arenas exactly like Schedule. The anytime
// improver drives its tail re-searches through this: every move carries
// its own state budget and a freshly seeded incumbent, neither of which
// is known at engine construction. Zero fields of cfg default the same
// way Search defaults them.
func (en *Engine) ScheduleWith(in Instance, cfg SearchConfig) (*Result, error) {
	res, e, err := en.search.run(in, cfg, en.e)
	en.e = e
	return res, err
}

// Schedule implements Scheduler, recycling the engine's arenas.
func (en *Engine) Schedule(in Instance) (*Result, error) {
	return en.schedule(in, false)
}

// ScheduleProfiled runs Schedule with the per-depth search profile
// enabled: the Result's Stats.Depths reports expansions, memo hits and
// prune counts by DFS depth. Traced requests use this; the plain
// Schedule path stays profile-free so untraced results keep their exact
// historic encodings.
func (en *Engine) ScheduleProfiled(in Instance) (*Result, error) {
	return en.schedule(in, true)
}

func (en *Engine) schedule(in Instance, profile bool) (*Result, error) {
	cfg := en.search.cfg
	if cfg.Incumbent == nil && cfg.Moves == MaximalMoves {
		if en.inc == nil {
			en.inc = NewGOPT(cfg.Budget).NewEngine()
		}
		cfg.Incumbent = en.inc
	}
	cfg.DepthProfile = profile
	res, e, err := en.search.run(in, cfg, en.e)
	en.e = e
	return res, err
}
