package main

import (
	"bytes"
	"context"
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"time"

	"drishti/internal/experiments"
	"drishti/internal/policies"
	"drishti/internal/sim"
	"drishti/internal/workload"
)

// sweep-fig13: the paper's headline grid through Experiment.RunContext at
// harness scale, each sweep with its own seed so the harness memo never
// serves one.
const (
	sweepScale  = 8
	sweepInstr  = 20_000
	sweepWarmup = 5_000
	// sweepCells is the grid fig13 reports: 3 core counts × (1 homogeneous +
	// 1 heterogeneous mix) × 4 policies. The LRU baseline and the per-core
	// alone runs ride along in each mix's batch but are not result cells.
	sweepCells = 24
	// sweepPhases is fig13's core counts, run one after the other; each
	// phase runs its sweepMixes mixes as one lockstep batch each on the mix
	// pool.
	sweepPhases = 3
	sweepMixes  = 2
)

var sweepSize = fmt.Sprintf("cell size: cores x (warmup+instructions) = {4,16,32} x (%d+%d); %d cells per sweep, scale 1/%d",
	sweepWarmup, sweepInstr, sweepCells, sweepScale)

type sweepBench struct {
	o     *options
	round int
	fig13 experiments.Experiment
	tab05 experiments.Experiment
	seeds []uint64 // timed sweeps, in order
	dig   *digest
}

func newSweep(ctx context.Context, o *options, round int) (instance, error) {
	fig13, ok1 := experiments.ByID("fig13")
	tab05, ok2 := experiments.ByID("tab05")
	if !ok1 || !ok2 {
		return nil, fmt.Errorf("experiments fig13/tab05 not registered")
	}
	b := &sweepBench{o: o, round: round, fig13: fig13, tab05: tab05, dig: newDigest()}
	if _, _, err := b.sweep(ctx, subSeed(setupSeed, "sweep-warmup", round)); err != nil {
		return nil, fmt.Errorf("warm-up sweep: %w", err)
	}
	return b, nil
}

func (b *sweepBench) params(seed uint64, log *slog.Logger) experiments.Params {
	return experiments.Params{
		Scale:        sweepScale,
		Instructions: sweepInstr,
		Warmup:       sweepWarmup,
		Mixes:        1,
		Seed:         seed,
		Parallelism:  b.o.nproc,
		Logger:       log,
	}
}

func (b *sweepBench) unit(ctx context.Context, _, n int) (unitResult, error) {
	// The stream is per build: the harness memo lives as long as the
	// process, and a later build must not be served an earlier one's sweep.
	seed := subSeed(b.o.seed, fmt.Sprintf("sweep/r%d", b.round), n)
	out, tail, err := b.sweep(ctx, seed)
	if err != nil {
		return unitResult{}, err
	}
	b.seeds = append(b.seeds, seed)
	b.dig.add([]byte(out))
	return unitResult{cells: sweepCells, tail: tail}, nil
}

// sweep runs fig13 once and returns its table and the latency of each of
// its lockstep batches.
func (b *sweepBench) sweep(ctx context.Context, seed uint64) (string, []time.Duration, error) {
	clock := &cellClock{start: time.Now()}
	var out bytes.Buffer
	if err := b.fig13.RunContext(ctx, b.params(seed, slog.New(clock)), &out); err != nil {
		return "", nil, err
	}
	if n := len(clock.cells); n != sweepCells {
		return "", nil, fmt.Errorf("seed %d: %d cells delivered, want %d", seed, n, sweepCells)
	}
	batches, err := clock.batches()
	if err != nil {
		return "", nil, fmt.Errorf("seed %d: %w", seed, err)
	}
	if err := checkFig13(out.String()); err != nil {
		return "", nil, fmt.Errorf("seed %d: %w", seed, err)
	}
	return out.String(), batches, nil
}

// checkFig13 checks the table's shape: one row per core count with a
// finite percentage per policy.
func checkFig13(out string) error {
	rows := 0
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) != 5 || (f[0] != "4" && f[0] != "16" && f[0] != "32") {
			continue
		}
		for _, v := range f[1:] {
			var x float64
			if _, err := fmt.Sscanf(v, "%f%%", &x); err != nil || x != x {
				return fmt.Errorf("fig13 row %q: bad value %q", line, v)
			}
		}
		rows++
	}
	if rows != 3 {
		return fmt.Errorf("fig13 printed %d core-count rows, want 3", rows)
	}
	return nil
}

// check recomputes the first timed sweep's 4-core cells one by one through
// sim.RunMixContext and compares their mean WPKI, per policy, with what the
// harness printed for that sweep in tab05 (served from the harness memo, so
// it shows the batched sweep's own results).
func (b *sweepBench) check(ctx context.Context) (int, []error) {
	if len(b.seeds) == 0 {
		return 1, []error{fmt.Errorf("no timed sweep to check")}
	}
	seed := b.seeds[0]
	var out bytes.Buffer
	if err := b.tab05.RunContext(ctx, b.params(seed, nil), &out); err != nil {
		return 1, []error{fmt.Errorf("tab05 for seed %d: %w", seed, err)}
	}
	var printed []string
	for _, line := range strings.Split(out.String(), "\n") {
		if f := strings.Fields(line); len(f) == 6 && f[0] == "4" {
			printed = f[1:]
		}
	}
	if printed == nil {
		return 1, []error{fmt.Errorf("tab05 for seed %d printed no 4-core row", seed)}
	}

	const cores = 4
	cfg := sim.ScaledConfig(cores, sweepScale)
	cfg.Instructions, cfg.Warmup, cfg.Seed = sweepInstr, sweepWarmup, seed
	// The harness's mix selection at Mixes=1: the first homogeneous mix and
	// one heterogeneous mix (see experiments.Params.paperMixes).
	models := workload.ScaleAll(workload.AllSPECGAP(), sweepScale, cfg.SetIndexBits())
	mixes := []workload.Mix{
		workload.HomogeneousMixes(models, cores, seed)[0],
		workload.HeterogeneousMixes(models, cores, 1, seed^0xdeadbeef)[0],
	}
	specs := []policies.Spec{
		{Name: "lru"},
		{Name: "hawkeye"}, {Name: "hawkeye", Drishti: true},
		{Name: "mockingjay"}, {Name: "mockingjay", Drishti: true},
	}
	var errs []error
	for i, spec := range specs {
		c := cfg
		c.Policy = spec
		var sum float64
		for _, mix := range mixes {
			res, err := sim.RunMixContext(ctx, c, mix)
			if err != nil {
				return len(specs), append(errs, fmt.Errorf("recompute %s: %w", spec.DisplayName(), err))
			}
			sum += res.WPKI
		}
		if got := fmt.Sprintf("%.2f", sum/float64(len(mixes))); got != printed[i] {
			errs = append(errs, fmt.Errorf("seed %d, 4 cores, %s: harness WPKI %s, direct recompute %s",
				seed, spec.DisplayName(), printed[i], got))
		}
	}
	return len(specs), errs
}

func (b *sweepBench) digests() (string, string) { return b.dig.sums() }

func (b *sweepBench) layers(*ledger) {}

func (b *sweepBench) close() error { return nil }

// cellClock is a slog.Handler that timestamps the harness's "cell done"
// records; the sweep's worker goroutines log concurrently.
type cellClock struct {
	start time.Time
	mu    sync.Mutex
	cells []cellDone // in arrival order
}

type cellDone struct {
	at  time.Duration // since the sweep's start
	mix string
}

func (c *cellClock) Enabled(context.Context, slog.Level) bool { return true }

func (c *cellClock) Handle(_ context.Context, r slog.Record) error {
	if r.Message != "cell done" {
		return nil
	}
	d := cellDone{at: time.Since(c.start)}
	r.Attrs(func(a slog.Attr) bool {
		if a.Key == "mix" {
			d.mix = a.Value.String()
			return false
		}
		return true
	})
	c.mu.Lock()
	c.cells = append(c.cells, d)
	c.mu.Unlock()
	return nil
}

// batches turns the cell records into one latency per lockstep batch. A
// batch logs its cells together when it ends, and fig13 runs its core-count
// phases one after the other, so a batch's latency runs from the end of
// the previous phase (the sweep's start, for the first) to its last cell.
// Unlike a per-cell figure, this is not set by when the sweep ends.
func (c *cellClock) batches() ([]time.Duration, error) {
	perPhase := len(c.cells) / sweepPhases
	var out []time.Duration
	var phaseStart time.Duration
	for ph := 0; ph < sweepPhases; ph++ {
		cells := c.cells[ph*perPhase : (ph+1)*perPhase]
		end := map[string]time.Duration{}
		var order []string
		for _, cd := range cells {
			if _, ok := end[cd.mix]; !ok {
				order = append(order, cd.mix)
			}
			end[cd.mix] = cd.at
		}
		if len(order) != sweepMixes {
			return nil, fmt.Errorf("core-count phase %d delivered cells of %d mixes, want %d", ph, len(order), sweepMixes)
		}
		for _, m := range order {
			out = append(out, end[m]-phaseStart)
		}
		phaseStart = cells[len(cells)-1].at
	}
	return out, nil
}

func (c *cellClock) WithAttrs([]slog.Attr) slog.Handler { return c }
func (c *cellClock) WithGroup(string) slog.Handler      { return c }
