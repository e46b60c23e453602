package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync/atomic"
	"time"

	"drishti/internal/policies"
	"drishti/internal/sim"
	"drishti/internal/trace"
	"drishti/internal/workload"
)

// cell-64c: back-to-back single 64-core D-Mockingjay cells through
// sim.RunMixContext, one seeded heterogeneous mix per cell. Scale 1/32
// gives each slice the configuration's 64 KB floor (1024 lines), so a cell
// of this budget warms the LLC enough for DSC to select sets on most
// slices; at 1/8 every slice stays cold and DSC never fires.
const (
	cellCores  = 64
	cellScale  = 32
	cellInstr  = 8_000
	cellWarmup = 2_000
)

var cellSize = fmt.Sprintf("cell size: cores x (warmup+instructions) = %d x (%d+%d); 1 cell per unit, scale 1/%d, d-mockingjay",
	cellCores, cellWarmup, cellInstr, cellScale)

type cellBench struct {
	o      *options
	cfg    sim.Config
	models []workload.Model
	seeds  []uint64 // timed cells, in order
	out    [][]byte // their results, JSON-encoded
	dig    *digest
	totals counts
	gen    *genClock // traced runs: timing around every trace record
}

func newCell(ctx context.Context, o *options, round int) (instance, error) {
	cfg := sim.ScaledConfig(cellCores, cellScale)
	cfg.Instructions, cfg.Warmup = cellInstr, cellWarmup
	cfg.Policy = policies.Spec{Name: "mockingjay", Drishti: true}
	b := &cellBench{
		o:      o,
		cfg:    cfg,
		models: workload.ScaleAll(workload.AllSPECGAP(), cellScale, cfg.SetIndexBits()),
		dig:    newDigest(),
	}
	if o.traced {
		b.gen = newGenClock()
	}
	if _, err := b.run(ctx, subSeed(setupSeed, "cell-warmup", round), b.gen); err != nil {
		return nil, fmt.Errorf("warm-up cell: %w", err)
	}
	b.totals = counts{}
	if b.gen != nil {
		b.gen.reset()
	}
	return b, nil
}

// run simulates the cell of one seed; with a genClock every core's trace
// reader is wrapped so record generation is timed.
func (b *cellBench) run(ctx context.Context, seed uint64, gen *genClock) (*sim.Result, error) {
	cfg := b.cfg
	cfg.Seed = seed
	mix := workload.HeterogeneousMixes(b.models, cellCores, 1, seed)[0]
	var (
		res *sim.Result
		err error
	)
	if gen == nil {
		res, err = sim.RunMixContext(ctx, cfg, mix)
	} else {
		res, err = gen.run(ctx, cfg, mix)
	}
	if err != nil {
		return nil, err
	}
	if err := sane(res, cellCores); err != nil {
		return nil, fmt.Errorf("seed %d: %w", seed, err)
	}
	b.totals.add(res)
	return res, nil
}

func (b *cellBench) unit(ctx context.Context, _, n int) (unitResult, error) {
	seed := subSeed(b.o.seed, "cell", n)
	res, err := b.run(ctx, seed, b.gen)
	if err != nil {
		return unitResult{}, err
	}
	raw, err := json.Marshal(res)
	if err != nil {
		return unitResult{}, err
	}
	b.seeds = append(b.seeds, seed)
	b.out = append(b.out, raw)
	b.dig.add(raw)
	return unitResult{cells: 1}, nil
}

// check recomputes the first and the last timed cell with a plain
// sim.RunMixContext and compares the results byte for byte.
func (b *cellBench) check(ctx context.Context) (int, []error) {
	if len(b.seeds) == 0 {
		return 1, []error{fmt.Errorf("no timed cell to check")}
	}
	picks := []int{0}
	if last := len(b.seeds) - 1; last > 0 {
		picks = append(picks, last)
	}
	var errs []error
	for _, i := range picks {
		cfg := b.cfg
		cfg.Seed = b.seeds[i]
		res, err := sim.RunMixContext(ctx, cfg, workload.HeterogeneousMixes(b.models, cellCores, 1, b.seeds[i])[0])
		if err == nil {
			var raw []byte
			if raw, err = json.Marshal(res); err == nil && !bytes.Equal(raw, b.out[i]) {
				err = fmt.Errorf("result differs from the timed run")
			}
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("recompute of cell %d (seed %d): %w", i, b.seeds[i], err))
		}
	}
	return len(picks), errs
}

func (b *cellBench) digests() (string, string) { return b.dig.sums() }

func (b *cellBench) layers(l *ledger) {
	b.totals.report(l)
	if b.gen != nil {
		l.set("workload.gen_ns_per_rec", b.gen.nsPerRecord(), "ns")
		l.set("workload.records", float64(b.gen.records.Load()), "count")
	}
}

func (b *cellBench) close() error { return nil }

// sane rejects results no correct run produces.
func sane(res *sim.Result, cores int) error {
	if len(res.PerCore) != cores {
		return fmt.Errorf("%d per-core results, want %d", len(res.PerCore), cores)
	}
	for c, pc := range res.PerCore {
		if !(pc.IPC > 0) {
			return fmt.Errorf("core %d: IPC %v", c, pc.IPC)
		}
	}
	return nil
}

// counts sums the work counters of delivered results.
type counts struct {
	demandAccesses, demandMisses, writebacks uint64
	prefIssued, prefDropped                  uint64
	dscSelections                            uint64
	lookups, trainings                       uint64
	meshMsgs, starMsgs                       uint64
	dramReads, dramWrites, rowHits           uint64
}

func (c *counts) add(r *sim.Result) {
	c.demandAccesses += r.LLC.DemandAccesses
	c.demandMisses += r.LLC.DemandMisses
	c.writebacks += r.LLC.Writebacks
	c.prefIssued += r.PrefetchesIssued
	c.prefDropped += r.PrefetchesDropped
	c.dscSelections += r.DSCSelections
	if r.Fabric != nil {
		c.lookups += r.Fabric.Lookups
		c.trainings += r.Fabric.Trainings
	}
	c.meshMsgs += r.MeshMsgs
	c.starMsgs += r.StarMsgs
	c.dramReads += r.DRAM.Reads
	c.dramWrites += r.DRAM.Writes
	c.rowHits += r.DRAM.RowHits
}

func (c *counts) report(l *ledger) {
	for _, m := range []struct {
		name string
		v    uint64
	}{
		{"llc.demand_accesses", c.demandAccesses},
		{"llc.demand_misses", c.demandMisses},
		{"llc.writebacks", c.writebacks},
		{"prefetch.issued", c.prefIssued},
		{"prefetch.dropped", c.prefDropped},
		{"sampler.dsc_selections", c.dscSelections},
		{"fabric.lookups", c.lookups},
		{"fabric.trainings", c.trainings},
		{"noc.mesh_msgs", c.meshMsgs},
		{"noc.star_msgs", c.starMsgs},
		{"dram.reads", c.dramReads},
		{"dram.writes", c.dramWrites},
		{"dram.row_hits", c.rowHits},
	} {
		l.set(m.name, float64(m.v), "count")
	}
}

// genClock times workload record generation through a trace.Reader
// wrapper around every core's reader.
type genClock struct {
	records atomic.Int64  // every Next call
	sampled atomic.Int64  // the timed ones
	busy    atomic.Int64  // ns inside the timed calls, clock overhead subtracted
	tick    time.Duration // cost of one pair of clock reads
}

func newGenClock() *genClock {
	// The cost of one back-to-back pair of clock reads, subtracted from
	// every timed Next so the figure is the generator's own time.
	const n = 1 << 16
	t0 := time.Now()
	for i := 0; i < n; i++ {
		_ = time.Since(t0)
	}
	return &genClock{tick: time.Since(t0) / n}
}

func (g *genClock) reset() {
	g.records.Store(0)
	g.sampled.Store(0)
	g.busy.Store(0)
}

func (g *genClock) nsPerRecord() float64 {
	if n := g.sampled.Load(); n > 0 {
		return float64(g.busy.Load()) / float64(n)
	}
	return 0
}

func (g *genClock) run(ctx context.Context, cfg sim.Config, mix workload.Mix) (*sim.Result, error) {
	readers, err := sim.Readers(mix)
	if err != nil {
		return nil, err
	}
	timed := make([]*timedReader, len(readers))
	for i, r := range readers {
		timed[i] = &timedReader{Reader: r}
		readers[i] = timed[i]
	}
	sys, err := sim.New(cfg, readers)
	if err != nil {
		return nil, err
	}
	res, err := sys.RunContext(ctx)
	for _, t := range timed {
		g.records.Add(t.n)
		g.sampled.Add(t.sampled)
		g.busy.Add(t.busy - int64(g.tick)*t.sampled)
	}
	return res, err
}

// timedReader counts every Next call and times one in sampleEvery, so the
// clock reads stay a small share of the generator's own time. One
// simulation drives all of a cell's readers from one goroutine, so the sums
// need no synchronization until the cell ends.
type timedReader struct {
	trace.Reader
	n, sampled, busy int64
}

const sampleEvery = 16

func (t *timedReader) Next() (trace.Rec, bool) {
	t.n++
	if t.n%sampleEvery != 0 {
		return t.Reader.Next()
	}
	t0 := time.Now()
	rec, ok := t.Reader.Next()
	t.busy += int64(time.Since(t0))
	t.sampled++
	return rec, ok
}
