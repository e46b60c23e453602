package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"
)

// perLayer lists every per-layer metric a traced run reports, with its
// unit; a layer that does no work on a workload reports 0.
var perLayer = []struct{ name, unit string }{
	{"trace.cells_per_s", "1/s"},
	{"trace.overhead_pct", "%"},
	{"profile.coverage_pct", "%"},
	{"workload.cpu_share", "%"},
	{"workload.math_share", "%"},
	{"workload.gen_ns_per_rec", "ns"},
	{"workload.records", "count"},
	{"cache.cpu_share", "%"},
	{"prefetch.cpu_share", "%"},
	{"prefetch.issued", "count"},
	{"prefetch.dropped", "count"},
	{"llc.demand_accesses", "count"},
	{"llc.demand_misses", "count"},
	{"llc.writebacks", "count"},
	{"repl.cpu_share", "%"},
	{"sampler.cpu_share", "%"},
	{"sampler.dsc_selections", "count"},
	{"fabric.cpu_share", "%"},
	{"fabric.lookups", "count"},
	{"fabric.trainings", "count"},
	{"noc.cpu_share", "%"},
	{"noc.mesh_msgs", "count"},
	{"noc.star_msgs", "count"},
	{"dram.cpu_share", "%"},
	{"dram.reads", "count"},
	{"dram.writes", "count"},
	{"dram.row_hits", "count"},
	{"sim.cpu_share", "%"},
	{"sim.workload_gen_ms", "ms"},
	{"sim.private_replay_ms", "ms"},
	{"sim.lane_run_ms", "ms"},
	{"sim.barrier_ms", "ms"},
	{"sim.batch_wall_ms", "ms"},
	{"sim.window_grows", "count"},
	{"sim.lane_utilization", "%"},
	{"sim.phase_cover_pct", "%"},
	{"experiments.cpu_share", "%"},
	{"runtime.heap_inuse_mb", "MB"},
	{"store.cpu_share", "%"},
	{"store.get_us", "us"},
	{"store.put_us", "us"},
	{"store.hits", "count"},
	{"store.misses", "count"},
	{"store.hit_ratio", "ratio"},
	{"serve.cpu_share", "%"},
	{"serve.queue_wait_ms", "ms"},
	{"serve.run_ms", "ms"},
	{"api.cpu_share", "%"},
	{"api.decode_us", "us"},
	{"api.stream_bytes", "B/job"},
	{"dist.cpu_share", "%"},
	{"dist.lease_ms", "ms"},
	{"dist.cells_forwarded", "count"},
	{"dist.cells_from_store", "count"},
	{"net.cpu_share", "%"},
	{"runtime.cpu_share", "%"},
	{"runtime.gc_share", "%"},
	{"runtime.gc_cycles", "count"},
	{"bench.cpu_share", "%"},
}

// layerOf maps packages to ledger layers. A profile sample is charged to
// the innermost frame on its stack whose package is listed; unlisted
// packages (the rest of the standard library, small helpers such as
// internal/oatable and internal/mem) are charged to their caller. A stack
// with no listed frame is "runtime" when every frame is the runtime's and
// "other" otherwise.
var layerOf = map[string]string{
	"drishti/internal/workload":    "workload",
	"drishti/internal/stats":       "workload",
	"drishti/internal/trace":       "workload",
	"drishti/internal/cache":       "cache",
	"drishti/internal/cpu":         "cache",
	"drishti/internal/prefetch":    "prefetch",
	"drishti/internal/repl":        "repl",
	"drishti/internal/policy":      "repl",
	"drishti/internal/policies":    "repl",
	"drishti/internal/sampler":     "sampler",
	"drishti/internal/fabric":      "fabric",
	"drishti/internal/noc":         "noc",
	"drishti/internal/dram":        "dram",
	"drishti/internal/sim":         "sim",
	"drishti/internal/metrics":     "sim",
	"drishti/internal/energy":      "sim",
	"drishti/internal/experiments": "experiments",
	"drishti/internal/memo":        "experiments",
	"drishti/internal/store":       "store",
	"crypto":                       "store", // content addresses and payload checksums
	"drishti/internal/serve":       "serve",
	"drishti/internal/obs":         "serve",
	"drishti/internal/serve/api":   "api",
	"drishti/internal/scenario":    "api",
	"encoding/json":                "api",
	"drishti/internal/dist":        "dist",
	"drishti/internal/ring":        "dist",
	"net":                          "net",
	"main":                         "bench",
}

// layers in ledger order.
var layers = []string{"workload", "cache", "prefetch", "repl", "sampler", "fabric", "noc", "dram",
	"sim", "experiments", "store", "serve", "api", "dist", "net", "runtime", "bench", "other"}

// ledger is a traced run's per-layer report.
type ledger struct {
	values map[string]float64
	units  map[string]string
	notes  []string
	phases *phaseSum
}

func newLedger() *ledger {
	return &ledger{values: make(map[string]float64), units: make(map[string]string)}
}

func (l *ledger) set(name string, v float64, unit string) {
	l.values[name] = v
	l.units[name] = unit
}

func (l *ledger) note(format string, args ...any) {
	l.notes = append(l.notes, fmt.Sprintf(format, args...))
}

// phaseSum is the fleet workers' batch phase totals.
type phaseSum struct {
	gen, barrier, laneRun time.Duration
	laneCapacity, wall    time.Duration
	groups                int
}

// tracedRun is the --trace 1 run: half the window untraced as the
// reference, then a fresh build with every timing wrapper and span hook on
// for the other half under a CPU profile, then the checks and the ledger.
func tracedRun(ctx context.Context, w workloadDef, o *options) (*result, error) {
	half := o.window / 2
	if half < time.Second {
		half = time.Second
	}
	ref, err := w.build(ctx, o, 0)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	refWin := measure(ctx, w, ref, half)
	if err := ref.close(); err != nil {
		return nil, err
	}

	to := *o
	to.traced = true
	inst, err := w.build(ctx, &to, 1)
	if err != nil {
		return nil, fmt.Errorf("traced setup: %w", err)
	}
	defer inst.close()
	profPath := filepath.Join(o.tmp, "cpu.pprof")
	pf, err := os.Create(profPath)
	if err != nil {
		return nil, err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if err := pprof.StartCPUProfile(pf); err != nil {
		pf.Close()
		return nil, err
	}
	win := measure(ctx, w, inst, half)
	pprof.StopCPUProfile()
	runtime.ReadMemStats(&m1)
	if err := pf.Close(); err != nil {
		return nil, err
	}

	res := finish(ctx, inst, win)
	res.Attempted += refWin.attempted
	res.Failed += len(refWin.errs)
	res.Correct = res.Correct && len(refWin.errs) == 0
	for _, err := range refWin.errs {
		fmt.Printf("# FAILED (reference window): %v\n", err)
	}
	if win.elapsed <= 0 || refWin.elapsed <= 0 {
		return nil, fmt.Errorf("no unit completed in a window")
	}

	l := newLedger()
	traced := float64(win.cells) / win.elapsed.Seconds()
	untraced := float64(refWin.cells) / refWin.elapsed.Seconds()
	l.set("trace.cells_per_s", traced, "1/s")
	l.set("trace.overhead_pct", 100*(untraced-traced)/untraced, "%")
	l.set("runtime.heap_inuse_mb", float64(m1.HeapInuse)/(1<<20), "MB")
	l.set("runtime.gc_cycles", float64(m1.NumGC-m0.NumGC), "count")

	f, err := foldProfile(ctx, profPath)
	if err != nil {
		return nil, err
	}
	for _, layer := range layers {
		l.set(layer+".cpu_share", f.share(f.layer[layer]), "%")
	}
	l.set("runtime.gc_share", f.share(f.gc), "%")
	l.set("workload.math_share", f.share(f.math), "%")
	covered := 100 - f.share(f.layer["other"])
	l.set("profile.coverage_pct", covered, "%")
	inst.layers(l)

	// The ledger's own checks count as operations of the run.
	fail := func(format string, args ...any) {
		res.Failed++
		res.Correct = false
		fmt.Printf("# FAILED: "+format+"\n", args...)
	}
	res.Attempted++
	if covered < 95 {
		fail("layer shares cover %.1f%% of profile samples, want >= 95%%", covered)
	}
	for _, name := range w.busy {
		res.Attempted++
		if !(l.values[name] > 0) {
			fail("%s is %v: a layer this workload exercises did no work", name, l.values[name])
		}
	}
	if p := l.phases; p != nil && p.wall > 0 {
		// Lanes run concurrently on up to lane-workers goroutines, so the
		// batch wall must lie between the shared phases plus the lane-run
		// total spread over every worker and the same with lanes in series.
		shared := p.gen + p.barrier
		parallel := shared + time.Duration(float64(p.laneRun)*float64(p.wall)/float64(p.laneCapacity))
		serial := shared + p.laneRun
		l.set("sim.phase_cover_pct", 100*float64(serial)/float64(p.wall), "%")
		verdict := "adds up"
		res.Attempted++
		if float64(parallel) > 1.25*float64(p.wall) || float64(p.wall) > 1.25*float64(serial) {
			verdict = "does NOT add up"
			fail("batch phases do not add up to the batch wall within 25%%")
		}
		l.note("phases over %d batch groups: shared %.1fms + lane-run %.1fms against %.1fms of batch wall (lanes serial: %.1f%%, spread over the lane workers: %.1f%%): %s within the 25%% bound",
			p.groups, ms(shared), ms(p.laneRun), ms(p.wall), 100*float64(serial)/float64(p.wall),
			100*float64(parallel)/float64(p.wall), verdict)
	}
	l.note("math.Log1p/Exp/Log self time under the workload samplers: %.1f%% of all samples (EXPERIMENTS.md §1.4 put it near 20%% of a single run)",
		l.values["workload.math_share"])
	l.note("tracing overhead: %.1f cells/s traced vs %.1f cells/s untraced in this process (%.1f%%)",
		traced, untraced, l.values["trace.overhead_pct"])
	l.note("profile: %.2fs of samples over a %.2fs window (%.2f CPUs busy)",
		f.total.Seconds(), win.elapsed.Seconds(), f.total.Seconds()/win.elapsed.Seconds())
	l.print()

	res.Metrics = make(map[string]metric, len(perLayer))
	for _, m := range perLayer {
		res.Metrics[m.name] = metric{Value: l.values[m.name], Unit: m.unit}
	}
	return res, nil
}

// print renders the ledger as layer × (CPU share, work counts, waits).
func (l *ledger) print() {
	rows := map[string][2][]string{
		"workload": {{"workload.records", "workload.gen_ns_per_rec"}, nil},
		"cache":    {{"llc.demand_accesses", "llc.demand_misses", "llc.writebacks"}, nil},
		"prefetch": {{"prefetch.issued", "prefetch.dropped"}, nil},
		"sampler":  {{"sampler.dsc_selections"}, nil},
		"fabric":   {{"fabric.lookups", "fabric.trainings"}, nil},
		"noc":      {{"noc.mesh_msgs", "noc.star_msgs"}, nil},
		"dram":     {{"dram.reads", "dram.writes", "dram.row_hits"}, nil},
		"sim": {{"sim.window_grows", "sim.lane_utilization"},
			{"sim.workload_gen_ms", "sim.private_replay_ms", "sim.lane_run_ms", "sim.barrier_ms", "sim.batch_wall_ms"}},
		"experiments": {{"runtime.heap_inuse_mb"}, nil},
		"store":       {{"store.hits", "store.misses", "store.hit_ratio"}, {"store.get_us", "store.put_us"}},
		"serve":       {nil, {"serve.queue_wait_ms", "serve.run_ms"}},
		"api":         {{"api.stream_bytes"}, {"api.decode_us"}},
		"dist":        {{"dist.cells_forwarded", "dist.cells_from_store"}, {"dist.lease_ms"}},
		"runtime":     {{"runtime.gc_cycles", "runtime.gc_share"}, nil},
	}
	show := func(names []string) string {
		var parts []string
		for _, n := range names {
			if v, ok := l.values[n]; ok {
				parts = append(parts, fmt.Sprintf("%s=%.4g%s", n[strings.Index(n, ".")+1:], v, unitSuffix(l.units[n])))
			}
		}
		if len(parts) == 0 {
			return "-"
		}
		return strings.Join(parts, " ")
	}
	fmt.Printf("# ledger: %-11s %7s  %-58s  %s\n", "layer", "cpu%", "count", "wait")
	for _, layer := range layers {
		r := rows[layer]
		fmt.Printf("# ledger: %-11s %6.2f%%  %-58s  %s\n", layer, l.values[layer+".cpu_share"], show(r[0]), show(r[1]))
	}
	for _, n := range l.notes {
		fmt.Printf("# ledger: %s\n", n)
	}
}

func unitSuffix(u string) string {
	switch u {
	case "count", "ratio", "":
		return ""
	default:
		return u
	}
}

// fold is a CPU profile charged to layers.
type fold struct {
	total time.Duration
	layer map[string]time.Duration
	gc    time.Duration // samples with a garbage-collector frame anywhere on the stack
	math  time.Duration // math.Log1p/Exp/Log leaves charged to the workload layer
}

func (f *fold) share(d time.Duration) float64 {
	if f.total == 0 {
		return 0
	}
	return 100 * float64(d) / float64(f.total)
}

// foldProfile reads the profile's sample stacks with `go tool pprof
// -traces` (offline; no symbol server) and charges each sample to a layer.
func foldProfile(ctx context.Context, path string) (*fold, error) {
	cmd := exec.CommandContext(ctx, "go", "tool", "pprof", "-traces", path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	f := &fold{layer: make(map[string]time.Duration)}
	var (
		value  time.Duration
		frames []string
	)
	flush := func() {
		if len(frames) > 0 {
			f.add(value, frames)
		}
		frames = frames[:0]
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	inBlock := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inBlock = true
			continue
		}
		if !inBlock {
			continue
		}
		fields := strings.Fields(strings.TrimSuffix(line, " (inline)"))
		if len(fields) == 0 {
			continue
		}
		if len(frames) == 0 {
			d, err := time.ParseDuration(fields[0])
			if err != nil || len(fields) < 2 {
				return nil, fmt.Errorf("pprof -traces: unexpected sample line %q", line)
			}
			value = d
			frames = append(frames, fields[1])
			continue
		}
		frames = append(frames, fields[0])
	}
	flush()
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if f.total == 0 {
		return nil, fmt.Errorf("CPU profile holds no samples")
	}
	return f, nil
}

// add charges one sample (frames leaf first).
func (f *fold) add(d time.Duration, frames []string) {
	f.total += d
	layer := ""
	for _, fn := range frames {
		if layer = layerFor(pkgOf(fn)); layer != "" {
			break
		}
	}
	if layer == "" {
		// Only stacks made of runtime frames alone — GC workers, the
		// scheduler, sysmon — are the runtime's own work; any other
		// unlisted stack stays uncovered.
		layer = "runtime"
		for _, fn := range frames {
			if !isRuntime(pkgOf(fn)) {
				layer = "other"
				break
			}
		}
	}
	f.layer[layer] += d
	for _, fn := range frames {
		if isGC(fn) {
			f.gc += d
			break
		}
	}
	leaf := strings.ToLower(frames[0])
	if layer == "workload" && pkgOf(frames[0]) == "math" &&
		(strings.Contains(leaf, "log") || strings.Contains(leaf, "exp")) {
		f.math += d
	}
}

// layerFor maps a package to its layer by the longest listed prefix.
func layerFor(pkg string) string {
	best, layer := -1, ""
	for p, l := range layerOf {
		if (pkg == p || strings.HasPrefix(pkg, p+"/")) && len(p) > best {
			best, layer = len(p), l
		}
	}
	return layer
}

// pkgOf extracts the import path from a symbol such as
// "drishti/internal/policy/mockingjay.(*Policy).Update" or
// "drishti/internal/memo.(*Cache[...]).Do".
func pkgOf(sym string) string {
	if i := strings.IndexByte(sym, '['); i >= 0 {
		sym = sym[:i]
	}
	slash := strings.LastIndexByte(sym, '/')
	if dot := strings.IndexByte(sym[slash+1:], '.'); dot >= 0 {
		return sym[:slash+1+dot]
	}
	return sym
}

func isRuntime(pkg string) bool {
	return pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/")
}

func isGC(fn string) bool {
	if strings.HasPrefix(fn, "runtime.gc") {
		return true
	}
	switch fn {
	case "runtime.bgsweep", "runtime.bgscavenge", "runtime.sweepone", "runtime.markroot", "runtime.scanobject", "runtime.scanstack":
		return true
	}
	return false
}
