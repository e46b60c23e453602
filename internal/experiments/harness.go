package experiments

import (
	"context"
	"fmt"
	"io"
	"math"
	"strings"
	"sync"

	"drishti/internal/memo"
	"drishti/internal/metrics"
	"drishti/internal/obs"
	"drishti/internal/policies"
	"drishti/internal/sim"
	"drishti/internal/workload"
)

func pow(x, y float64) float64 { return math.Pow(x, y) }

// Cross-experiment memoization: several figures reuse the same runs
// (fig13/fig14/tab05 share sweeps; fig10's traffic runs repeat per mix).
// Keys are the explicit sim.Config / workload.Mix / policies.Spec key
// builders, so results are exact. The caches are singleflight: concurrent
// sweep workers asking for the same run block on one execution instead of
// duplicating it or serializing unrelated runs. Capacities bound resident
// results so `drishti-bench all` at large -mixes cannot grow without
// limit; LRU eviction keeps the runs the current experiment is reusing.
const (
	mixCacheCap   = 1024
	evalCacheCap  = 512
	sweepCacheCap = 64
)

var (
	mixCache   = memo.New[*sim.Result](mixCacheCap)
	evalCache  = memo.New[*mixEval](evalCacheCap)
	sweepCache = memo.New[*sweepResult](sweepCacheCap)
)

// ResetCache clears the cross-experiment memo (tests use it to isolate
// runs and bound memory; the cmd binary never needs to).
func ResetCache() {
	mixCache.Reset()
	evalCache.Reset()
	sweepCache.Reset()
}

// cfgKey identifies one (machine, mix) simulation.
func cfgKey(cfg sim.Config, mix workload.Mix) string {
	return cfg.Key() + "|" + mix.Key()
}

// runMixCached is sim.RunMixContext with cross-experiment memoization. ctx
// cancels the computation if this caller owns it; waiters sharing the
// singleflight see the owner's outcome (a cancellation error is never
// cached, so the next request retries).
func runMixCached(ctx context.Context, cfg sim.Config, mix workload.Mix) (*sim.Result, error) {
	return mixCache.Do(cfgKey(cfg, mix), func() (*sim.Result, error) {
		return sim.RunMixContext(ctx, cfg, mix)
	})
}

func sweepKey(cfg sim.Config, mixes []workload.Mix, specs []policies.Spec) string {
	var b strings.Builder
	b.WriteString(cfg.Key())
	fmt.Fprintf(&b, "|mixes=%d", len(mixes))
	for _, m := range mixes {
		b.WriteByte('|')
		b.WriteString(m.Key())
	}
	for _, s := range specs {
		b.WriteByte('|')
		b.WriteString(s.Key())
	}
	return b.String()
}

// runSweepCached is runSweep with memoization keyed by config, mixes, and
// specs. Parallelism, logging, and progress are deliberately not part of
// the key: every parallelism produces bit-identical results (asserted by
// TestSweepParallelMatchesSerial), and observability never changes them.
func runSweepCached(cfg sim.Config, mixes []workload.Mix, specs []policies.Spec, p Params) (*sweepResult, error) {
	return sweepCache.Do(sweepKey(cfg, mixes, specs), func() (*sweepResult, error) {
		return runSweep(cfg, mixes, specs, p)
	})
}

// mixEval is the cached evaluation context for one mix: the LRU baseline run
// and the per-core alone IPCs (measured under LRU and shared across
// policies; see DESIGN.md §4).
type mixEval struct {
	alone   []float64
	baseWS  float64
	baseRes *sim.Result
}

// policyOutcome is one policy's result on one mix, normalized to LRU.
type policyOutcome struct {
	res    *sim.Result
	multi  metrics.Multi
	normWS float64 // WS(policy) / WS(lru) — the paper's headline metric
}

// sweep runs a set of policy specs over a set of mixes, returning
// per-policy geomean normalized WS plus per-mix details, and optionally
// streaming progress to w.
type sweepResult struct {
	specs    []policies.Spec
	mixes    []workload.Mix
	evals    []*mixEval
	normWS   [][]float64 // [spec][mix]
	outcomes [][]*policyOutcome
}

// runSweep evaluates every (mix, policy) cell, mix by mix: each mix's
// cells fold into one lockstep batch (runBatchedMix) in which the per-core
// alone calibration lanes and the LRU baseline lane (both skipped when the
// mix's eval is already cached) ride with the policy lanes over a single
// shared generation of the access streams, so workload generation is paid
// once per mix instead of once per run. Each batch's lanes run on a pool of
// lane workers and whole mixes on a pool sized by what the lanes leave of
// the Parallel() budget; every lane is an independent deterministic
// simulation, so results are bit-identical at every parallelism.
//
// On failure the sweep stops dispatching new mixes and returns the error
// of the lowest failing mix — mixes are dispatched in order, so every mix
// preceding the winner has already run, which makes the returned error
// the same at every parallelism. A batch fails as a unit, so the error
// names the mix, not the cell within it.
func runSweep(cfg sim.Config, mixes []workload.Mix, specs []policies.Spec, p Params) (*sweepResult, error) {
	sr := &sweepResult{
		specs:    specs,
		mixes:    mixes,
		evals:    make([]*mixEval, len(mixes)),
		normWS:   make([][]float64, len(specs)),
		outcomes: make([][]*policyOutcome, len(specs)),
	}
	for i := range specs {
		sr.normWS[i] = make([]float64, len(mixes))
		sr.outcomes[i] = make([]*policyOutcome, len(mixes))
	}
	log := p.logger()
	ctx := p.ctx()
	p.Progress.AddTotal(len(mixes) * len(specs))
	lanes := 0
	for _, mix := range mixes {
		lanes = max(lanes, len(planBatch(cfg, mix, specs).variants))
	}
	lw, par := splitBudget(p.Parallel(), lanes, len(mixes))
	cfg.LaneWorkers = lw // excluded from Key(): no cache identity drift
	runOne := func(mi int) error {
		mix := mixes[mi]
		ev, outs, err := runBatchedMix(ctx, cfg, mix, specs)
		if err != nil {
			return err
		}
		sr.evals[mi] = ev
		for si, out := range outs {
			// Mix-private slots: no lock needed.
			sr.normWS[si][mi] = out.normWS
			sr.outcomes[si][mi] = out
			p.Progress.Done(1)
			c := cfg
			c.Policy = specs[si]
			log.Info("cell done",
				"run", obs.RunID(c.Key(), mix.Key()),
				"mix", mix.Name, "policy", specs[si].DisplayName(),
				"normWS", out.normWS, "mpki", out.res.MPKI)
		}
		return nil
	}
	if par <= 1 {
		for mi := range mixes {
			if err := runOne(mi); err != nil {
				return nil, err
			}
		}
		return sr, nil
	}
	var (
		mu       sync.Mutex
		firstErr error
		errMix   = len(mixes)
		wg       sync.WaitGroup
		sem      = make(chan struct{}, par)
	)
	record := func(mi int, err error) {
		mu.Lock()
		if mi < errMix {
			errMix, firstErr = mi, err
		}
		mu.Unlock()
	}
	for mi := 0; mi < len(mixes); mi++ {
		if err := ctx.Err(); err != nil {
			// Cancelled: stop dispatching. Batches already in flight
			// observe the same context and abort on their own.
			record(mi, err)
			break
		}
		mu.Lock()
		failed := firstErr != nil
		mu.Unlock()
		if failed {
			break
		}
		sem <- struct{}{}
		wg.Add(1)
		go func(mi int) {
			defer wg.Done()
			defer func() { <-sem }()
			if err := runOne(mi); err != nil {
				record(mi, err)
			}
		}(mi)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return sr, nil
}

// sweepLaneWorkers caps the default lane workers per batch. At 2 lane
// workers one batch in flight matched two batches of one lane worker each
// in sweep throughput (EXPERIMENTS.md §1.17); beyond 2 a batch's lane
// speedup is Amdahl-bounded and unmeasured, while concurrent mixes scale
// close to linearly, so the budget past it runs further mixes.
const sweepLaneWorkers = 2

// splitBudget divides a sweep's parallelism budget between the lane
// workers of each batch (lw) and concurrent batches (par), lanes first:
// every batch in flight holds its own shared stream windows and lane
// machines, while the lanes of one batch share them, so memory follows
// par. lw is the budget, capped at sweepLaneWorkers and at lanes, the
// largest lane count among the sweep's batches. par takes what lw leaves,
// at least one and at most the mix count, and lw then takes what par
// leaves, so a sweep with fewer mixes than that keeps the budget busy.
// Purely a scheduling split: results are bit-identical at every
// combination.
func splitBudget(budget, lanes, mixes int) (lw, par int) {
	lw = max(1, min(budget, lanes, sweepLaneWorkers))
	par = max(1, min(mixes, budget/lw))
	return max(lw, min(budget/par, lanes)), par
}

// mixBatch is one mix's lockstep batch as runBatchedMix runs it: the
// lanes, and where their results land. When ev is nil the first cfg.Cores
// lanes are the alone lanes, core by core.
type mixBatch struct {
	evKey    string
	ev       *mixEval // the cached eval, or nil when the batch computes it
	variants []sim.Variant
	baseIdx  int   // the LRU baseline lane; -1 when ev is cached
	specIdx  []int // lane of each spec
}

// planBatch lays out mix's lanes: per-core alone calibration and the LRU
// baseline when the eval is not cached, plus one lane per policy spec.
// When LRU is itself one of the specs its lane doubles as the baseline.
func planBatch(cfg sim.Config, mix workload.Mix, specs []policies.Spec) mixBatch {
	lru := policies.Spec{Name: "lru"}
	base := cfg
	base.Policy = lru
	b := mixBatch{evKey: cfgKey(base, mix), baseIdx: -1, specIdx: make([]int, len(specs))}
	ev, cached := evalCache.Get(b.evKey)
	if cached {
		b.ev = ev
	} else {
		for c := 0; c < cfg.Cores; c++ {
			b.variants = append(b.variants, sim.Variant{Policy: lru, Alone: true, AloneCore: c})
		}
	}
	for si, spec := range specs {
		b.specIdx[si] = len(b.variants)
		b.variants = append(b.variants, sim.Variant{Policy: spec})
		if !cached && b.baseIdx < 0 && spec.Key() == lru.Key() {
			b.baseIdx = b.specIdx[si] // the LRU cell doubles as the baseline
		}
	}
	if !cached && b.baseIdx < 0 {
		b.baseIdx = len(b.variants)
		b.variants = append(b.variants, sim.Variant{Policy: lru})
	}
	return b
}

// runBatchedMix runs one mix's lanes (planBatch) as a single lockstep
// batch and assembles its mixEval and per-spec policyOutcomes. Each lane
// is bit-identical to the same configuration run on its own
// (sim.RunBatchContext).
func runBatchedMix(ctx context.Context, cfg sim.Config, mix workload.Mix, specs []policies.Spec) (*mixEval, []*policyOutcome, error) {
	b := planBatch(cfg, mix, specs)
	variants := b.variants
	if cfg.TelemetryEpoch > 0 && cfg.TelemetrySink != nil {
		// Per-lane attribution: each lane's epochs carry its 1-based lane
		// index and its cell's run ID, so a shared sink never collapses
		// the K lanes of one batch into a single indistinguishable stream.
		for i := range variants {
			c := cfg
			c.Policy = variants[i].Policy
			variants[i].TelemetrySink = obs.TagEpochs(cfg.TelemetrySink, i+1, obs.RunID(c.Key(), mix.Key()))
		}
	}
	results, err := sim.RunBatchContext(ctx, cfg, variants, mix)
	if err != nil {
		return nil, nil, fmt.Errorf("batched cells for %s: %w", mix.Name, err)
	}

	ev := b.ev
	if ev == nil {
		alone := make([]float64, cfg.Cores)
		for c := 0; c < cfg.Cores; c++ {
			alone[c] = results[c].PerCore[c].IPC
			if alone[c] <= 0 {
				return nil, nil, fmt.Errorf("mix %s core %d: zero alone IPC", mix.Name, c)
			}
		}
		baseRes := results[b.baseIdx]
		m, err := metrics.Compute(baseRes.IPCs(), alone)
		if err != nil {
			return nil, nil, err
		}
		fresh := &mixEval{alone: alone, baseWS: m.WS, baseRes: baseRes}
		// Publish through the cache's singleflight. Concurrent batches of
		// the same mix each simulate their own baseline; whichever
		// publishes first wins, and the values are bit-identical.
		ev, err = evalCache.Do(b.evKey, func() (*mixEval, error) { return fresh, nil })
		if err != nil {
			return nil, nil, err
		}
	}

	outs := make([]*policyOutcome, len(specs))
	for si := range specs {
		res := results[b.specIdx[si]]
		m, err := metrics.Compute(res.IPCs(), ev.alone)
		if err != nil {
			return nil, nil, err
		}
		outs[si] = &policyOutcome{res: res, multi: m, normWS: m.WS / ev.baseWS}
	}
	return ev, outs, nil
}

// geoNormWS returns the geomean normalized WS for spec index si.
func (sr *sweepResult) geoNormWS(si int) float64 { return geomean(sr.normWS[si]) }

// avgMPKI returns the mean LLC demand MPKI for spec index si.
func (sr *sweepResult) avgMPKI(si int) float64 {
	var s float64
	for _, out := range sr.outcomes[si] {
		s += out.res.MPKI
	}
	return s / float64(len(sr.outcomes[si]))
}

// avgWPKI returns the mean LLC WPKI for spec index si.
func (sr *sweepResult) avgWPKI(si int) float64 {
	var s float64
	for _, out := range sr.outcomes[si] {
		s += out.res.WPKI
	}
	return s / float64(len(sr.outcomes[si]))
}

// avgBaseMPKI returns the mean LRU MPKI across the sweep's mixes.
func (sr *sweepResult) avgBaseMPKI() float64 {
	var s float64
	for _, ev := range sr.evals {
		s += ev.baseRes.MPKI
	}
	return s / float64(len(sr.evals))
}

// avgBaseWPKI returns the mean LRU WPKI across the sweep's mixes.
func (sr *sweepResult) avgBaseWPKI() float64 {
	var s float64
	for _, ev := range sr.evals {
		s += ev.baseRes.WPKI
	}
	return s / float64(len(sr.evals))
}

// avgEnergy returns the mean uncore energy for spec si normalized to LRU.
func (sr *sweepResult) avgEnergy(si int) float64 {
	var s float64
	n := 0
	for mi, out := range sr.outcomes[si] {
		base := sr.evals[mi].baseRes.Energy.Total
		if base > 0 {
			s += out.res.Energy.Total / base
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return s / float64(n)
}

// header prints a standard experiment banner.
func header(w io.Writer, id, title string, p Params) {
	fmt.Fprintf(w, "== %s: %s\n", id, title)
	fmt.Fprintf(w, "   scale=1/%d instr=%d warmup=%d mixes=%d seed=%d\n",
		p.Scale, p.Instructions, p.Warmup, p.Mixes, p.Seed)
}

// mainSpecs is the Fig 13/14/Table 5/6 policy set.
func mainSpecs() []policies.Spec {
	return []policies.Spec{
		{Name: "hawkeye"},
		{Name: "hawkeye", Drishti: true},
		{Name: "mockingjay"},
		{Name: "mockingjay", Drishti: true},
	}
}
