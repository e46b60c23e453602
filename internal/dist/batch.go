package dist

import (
	"context"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"drishti/internal/obs/trace"
	"drishti/internal/policies"
	"drishti/internal/serve/api"
	"drishti/internal/sim"
	"drishti/internal/store"
	"drishti/internal/workload"
)

// Lockstep batching. Cells of one job that differ only in replacement
// policy describe the same machine running the same mix, so they can share
// one generation of the access streams (sim.RunBatchContext) instead of
// regenerating the workload once per cell. ExecuteCellGroup is the one cell
// executor of the service, the coordinator's local fallback and the fleet
// workers. The grouping is local to whichever node executes: the wire
// schema is untouched — leases still carry one CellSpec each, completions
// still settle one lease each — a batch is simply several cells that happen
// to be executed by one simulation. Per-lane results are bit-identical to
// the serial path (sim's golden determinism test pins this), so the store
// contents and job results cannot tell the difference.

// batchGroupKey is the grouping address for lockstep batching: the cell's
// content address with the policy erased. Cells with equal group keys are
// the same machine on the same mix and may share a batch. Never on the
// wire; the coordinator computes it at decompose time and executors
// re-derive it from the CellSpec.
func batchGroupKey(cfg sim.Config, mix workload.Mix) string {
	cfg.Policy = policies.Spec{}
	return api.CellKey(cfg, mix)
}

// cellPlan is one cell of a group, resolved from its wire spec.
type cellPlan struct {
	spec api.CellSpec
	cfg  sim.Config
	mix  workload.Mix
}

// planCell rebuilds the exact machine and mix from the wire spec and
// verifies the content address matches the sender's — a loud failure on
// any schema drift — without running the cell.
func planCell(spec api.CellSpec) (cellPlan, error) {
	cfg, mix, err := spec.Request.Cell(spec.WorkloadIndex, spec.PolicyIndex)
	if err != nil {
		return cellPlan{}, err
	}
	if key := api.CellKey(cfg, mix); key != spec.Key {
		return cellPlan{}, fmt.Errorf(
			"dist: cell key mismatch (wire-schema drift?): coordinator sent %q, rebuilt %q", spec.Key, key)
	}
	return cellPlan{spec: spec, cfg: cfg, mix: mix}, nil
}

// planJob resolves a request's workload × policy grid in its
// deterministic cell order, the order every executor reports results in.
func planJob(req api.JobRequest) ([]cellPlan, error) {
	nw, np, err := req.Grid()
	if err != nil {
		return nil, err
	}
	plans := make([]cellPlan, 0, nw*np)
	for wi := 0; wi < nw; wi++ {
		for pi := 0; pi < np; pi++ {
			cfg, mix, err := req.Cell(wi, pi)
			if err != nil {
				return nil, err
			}
			plans = append(plans, cellPlan{
				spec: api.CellSpec{Index: len(plans), Key: api.CellKey(cfg, mix), Request: req, WorkloadIndex: wi, PolicyIndex: pi},
				cfg:  cfg,
				mix:  mix,
			})
		}
	}
	return plans, nil
}

// CellSpecs decomposes a request into its cells' wire specs, indexed in
// the deterministic cell order.
func CellSpecs(req api.JobRequest) ([]api.CellSpec, error) {
	plans, err := planJob(req)
	if err != nil {
		return nil, err
	}
	specs := make([]api.CellSpec, len(plans))
	for i, pl := range plans {
		specs[i] = pl.spec
	}
	return specs, nil
}

// result renders the resolved cell in the wire layout.
func (pl cellPlan) result(res *sim.Result, fromStore bool) api.CellResult {
	return api.NewCellResult(pl.cfg.Policy.DisplayName(),
		pl.spec.Request.WorkloadName(pl.spec.WorkloadIndex), pl.mix.Name, res, fromStore)
}

// phaseTimes accumulates the simulator's phase-timing callbacks for one
// batch (sim.PhaseObserver). Lane -1 phases are shared across the batch;
// non-negative lanes index the batch's variants. The mutex satisfies the
// PhaseObserver concurrency contract: with sim.Config.LaneWorkers > 1,
// "lane-run" timings arrive from concurrent lane goroutines.
type phaseTimes struct {
	mu     sync.Mutex
	shared map[string]time.Duration
	lane   map[int]time.Duration // accumulated "lane-run" per lane
	grows  int                   // deadlock-breaker window growths ("window-grow")
}

func newPhaseTimes() *phaseTimes {
	return &phaseTimes{shared: make(map[string]time.Duration), lane: make(map[int]time.Duration)}
}

func (p *phaseTimes) ObservePhase(phase string, lane int, d time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if lane < 0 {
		if phase == "window-grow" {
			p.grows++
			return
		}
		p.shared[phase] += d
		return
	}
	p.lane[lane] += d
}

// laneDur returns the accumulated "lane-run" time for one lane.
func (p *phaseTimes) laneDur(lane int) (time.Duration, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	d, ok := p.lane[lane]
	return d, ok
}

// stampShared copies the batch's shared phase timings (workload gen,
// private-hierarchy replay, lockstep barriers, window growths) onto a
// span as attributes.
func (p *phaseTimes) stampShared(sp *trace.ActiveSpan) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, ph := range []string{"workload-gen", "private-replay", "barrier"} {
		if d, ok := p.shared[ph]; ok {
			sp.SetAttr("phase."+ph, d.Round(time.Microsecond).String())
		}
	}
	if p.grows > 0 {
		sp.SetAttr("phase.window-grows", fmt.Sprint(p.grows))
	}
}

// parentAt picks cell i's parent span: parents holds one span context per
// cell, or a single one every cell shares. Tracing off ⇒ nil.
func parentAt(parents []trace.SpanContext, i int) trace.SpanContext {
	switch {
	case len(parents) == 1:
		return parents[0]
	case i < len(parents):
		return parents[i]
	}
	return trace.SpanContext{}
}

// ExecuteCellGroup resolves a set of cells sharing one batch group: the
// only code in the service and the fleet that reads or writes the store
// and runs the simulator for a cell. Results are aligned with specs.
// Store hits are served per cell; the misses run as one simulation — a
// lone miss on the serial loop (sim.RunMixContext), two or more as lanes
// of one lockstep batch (sim.RunBatchContext) — and each is written back.
// A non-nil error applies to the whole group: callers fail or requeue
// every unresolved cell, exactly as if each had failed alone
// (RunBatchContext reports the lowest-indexed failing lane, matching the
// serial path's error ordering).
//
// parents carries one span context per spec (the cell's lease span), or a
// single one all cells share (the job span on the single-node and
// coordinator-local paths); with tracing off tr is nil and the function
// emits nothing. A batch gets a "batch-group" span carrying the shared
// phase timings under the first miss's parent, each simulated cell a
// "lane" span under its own parent, and store traffic "store-hit" /
// "store-write" spans.
//
// laneWorkers caps the batch's concurrent lane execution
// (sim.Config.LaneWorkers); callers pass the capacity slots the group
// already holds so batching never oversubscribes the node. 0 selects the
// sim default (DRISHTI_LANE_WORKERS, then GOMAXPROCS). Purely a wall-clock
// knob: lane results are bit-identical at every value.
func ExecuteCellGroup(ctx context.Context, st *store.Store, log *slog.Logger, specs []api.CellSpec, parents []trace.SpanContext, tr *trace.Tracer, laneWorkers int) ([]api.CellResult, error) {
	out := make([]api.CellResult, len(specs))
	var (
		group string
		lanes []int      // specs index per simulated cell
		plans []cellPlan // plan per simulated cell
	)
	for i, spec := range specs {
		pl, err := planCell(spec)
		if err != nil {
			return nil, err
		}
		gk := batchGroupKey(pl.cfg, pl.mix)
		if i == 0 {
			group = gk
		} else if gk != group {
			return nil, fmt.Errorf("dist: cell %d is not in batch group of cell %d", spec.Index, specs[0].Index)
		}
		var cached sim.Result
		hit, err := st.Get(spec.Key, &cached)
		if err != nil {
			return nil, err
		}
		if hit {
			hs := tr.Start(parentAt(parents, i), "store-hit")
			hs.SetAttr("key", spec.Key)
			hs.End()
			out[i] = pl.result(&cached, true)
			continue
		}
		lanes = append(lanes, i)
		plans = append(plans, pl)
	}
	if len(plans) == 0 {
		return out, nil
	}

	cfg, mix := plans[0].cfg, plans[0].mix
	cfg.LaneWorkers = laneWorkers // observational only; excluded from Config.Key
	var (
		gspan *trace.ActiveSpan
		pt    *phaseTimes
	)
	if len(plans) > 1 {
		gspan = tr.Start(parentAt(parents, lanes[0]), "batch-group")
		if gspan != nil {
			gspan.SetAttr("lanes", fmt.Sprint(len(plans)))
			gspan.SetAttr("cells", fmt.Sprint(len(specs)))
			gspan.SetAttr("lane-workers", fmt.Sprint(laneWorkers))
			pt = newPhaseTimes()
			cfg.Phases = pt // observational only; excluded from Config.Key
		}
	}
	// One "lane" span per simulated cell, parented to that cell's own span
	// so each lease's subtree stays self-contained even though the lanes
	// share one simulation.
	lspans := make([]*trace.ActiveSpan, len(plans))
	for k, i := range lanes {
		ls := tr.Start(parentAt(parents, i), "lane")
		ls.SetAttr("lane", fmt.Sprint(k))
		ls.SetAttr("policy", plans[k].cfg.Policy.DisplayName())
		lspans[k] = ls
	}
	var (
		res []*sim.Result
		err error
	)
	if len(plans) == 1 {
		var r *sim.Result
		r, err = sim.RunMixContext(ctx, cfg, mix)
		res = []*sim.Result{r}
	} else {
		vars := make([]sim.Variant, len(plans))
		for k, pl := range plans {
			vars[k].Policy = pl.cfg.Policy
		}
		res, err = sim.RunBatchContext(ctx, cfg, vars, mix)
	}
	if err != nil {
		for _, ls := range lspans {
			ls.SetAttr("error", err.Error())
			ls.End()
		}
		gspan.SetAttr("error", err.Error())
		gspan.End()
		return nil, err
	}
	for k, i := range lanes {
		ls := lspans[k]
		if pt != nil {
			if d, ok := pt.laneDur(k); ok {
				ls.SetAttr("phase.lane-run", d.Round(time.Microsecond).String())
			}
		}
		ls.End()
		ws := tr.Start(ls.Context(), "store-write")
		ws.SetAttr("key", specs[i].Key)
		if err := st.Put(specs[i].Key, res[k]); err != nil {
			// The result is good; only durability failed. Log and serve it.
			log.Warn("store put failed", "err", err)
			ws.SetAttr("error", err.Error())
		}
		ws.End()
		out[i] = plans[k].result(res[k], false)
	}
	if pt != nil {
		pt.stampShared(gspan)
	}
	gspan.End()
	return out, nil
}

// GroupCells partitions cells into batch groups, preserving their order
// within and across groups. spec extracts each cell's wire spec. A cell
// whose spec fails to resolve becomes a singleton group, so
// ExecuteCellGroup surfaces its error through the caller's normal
// failure path.
func GroupCells[T any](cells []T, spec func(T) api.CellSpec) [][]T {
	var (
		order  []string
		groups = make(map[string][]T)
	)
	for i, c := range cells {
		pl, err := planCell(spec(c))
		gk := fmt.Sprint("!", i) // unresolvable: never groups with anything
		if err == nil {
			gk = batchGroupKey(pl.cfg, pl.mix)
		}
		if _, ok := groups[gk]; !ok {
			order = append(order, gk)
		}
		groups[gk] = append(groups[gk], c)
	}
	out := make([][]T, 0, len(order))
	for _, gk := range order {
		out = append(out, groups[gk])
	}
	return out
}
