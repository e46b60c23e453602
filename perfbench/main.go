// Command perfbench is the repository benchmark. It drives one named
// workload through the program's public entry points (the fig13 sweep
// harness, the simulator, the job service over HTTP, the fleet), measures it
// for a fixed number of seconds, checks that every output is correct, and
// prints one JSON result line. Build and run it from the repository root
// with
//
//	python3 perfbench/run.py --workload cell-64c --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1 the
// run is profiled and the result holds the per-layer ledger instead. See
// README.md for the workloads, the metrics and how the layers map onto them.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// runLimit bounds a whole run, well inside the 180 s a run may take.
const runLimit = 160 * time.Second

func main() { os.Exit(run()) }

func run() int {
	var (
		name    = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Uint64("seed", 1, "input seed; the same seed gives the same inputs")
		seconds = flag.Int("seconds", 20, "length of the timed window")
		traced  = flag.Int("trace", 0, "0: end-to-end metrics; 1: profiled run with per-layer metrics")
	)
	flag.Parse()
	w, ok := workloads[*name]
	switch {
	case !ok:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (known: %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	case *seconds < 1:
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1")
		return 2
	case *traced != 0 && *traced != 1:
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}

	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	tmp, err := scratchDir(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)
	o := &options{seed: *seed, window: time.Duration(*seconds) * time.Second, nproc: nproc, tmp: tmp}

	host := readFingerprint()
	fmt.Printf("# workload=%s seed=%d seconds=%d trace=%d\n", *name, *seed, *seconds, *traced)
	fmt.Printf("# host nproc=%d gomaxprocs=%d go=%s commit=%s src_sha256=%s\n",
		nproc, runtime.GOMAXPROCS(0), runtime.Version(), host.commit, host.source)
	fmt.Printf("# %s\n", w.size)
	fmt.Printf("# loadavg start: %s\n", loadavg())
	ticks := cpuTicks()

	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	defer cancel()
	var res *result
	if *traced == 1 {
		res, err = tracedRun(ctx, w, o)
	} else {
		res, err = timedRun(ctx, w, o)
	}
	fmt.Printf("# loadavg end: %s\n", loadavg())
	fmt.Printf("# machine cpu during the run: %s\n", cpuSplit(ticks, cpuTicks()))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// options are the run-wide settings every workload sees.
type options struct {
	seed   uint64
	window time.Duration
	nproc  int
	tmp    string // scratch directory inside the checkout, removed at exit
	traced bool   // wire the timing wrappers and span hooks
}

// workloadDef is one named input set. build returns a fully set-up instance
// whose untimed warm-up unit has already run; round numbers the rebuilds of
// one run.
type workloadDef struct {
	clients int    // goroutines calling unit concurrently
	size    string // the cell size line printed with every run
	// setups is how many times a timed run builds the workload from
	// scratch; setup_s is their median, so one slow start does not decide
	// the figure. Cheap set-ups repeat more.
	setups int
	// busy names the per-layer counts that must be positive in a traced
	// run: the layers this workload is meant to exercise.
	busy  []string
	build func(ctx context.Context, o *options, round int) (instance, error)
}

// instance is a built workload.
type instance interface {
	// unit runs timed unit n of client c.
	unit(ctx context.Context, c, n int) (unitResult, error)
	// check runs the post-window correctness checks: how many ran, and the
	// ones that failed.
	check(ctx context.Context) (int, []error)
	// digests are the SHA-256 of the first timed unit's simulated
	// statistics (fixed by the seed) and of every timed unit's.
	digests() (first, all string)
	// layers adds the instance's own per-layer figures (traced runs).
	layers(l *ledger)
	close() error
}

// unitResult is what one timed unit delivered.
type unitResult struct {
	cells int
	// tail holds finer-grained latencies (one per lockstep batch) for
	// workloads whose runs hold too few units for a tail percentile of
	// their own.
	tail []time.Duration
}

var workloads = map[string]workloadDef{
	"sweep-fig13": {clients: 1, size: sweepSize, setups: 5, build: newSweep},
	"cell-64c": {clients: 1, size: cellSize, setups: 9, build: newCell,
		busy: []string{"sampler.dsc_selections", "fabric.lookups", "fabric.trainings", "noc.mesh_msgs", "noc.star_msgs",
			"llc.writebacks", "dram.reads", "workload.records"}},
	"fleet-mixed": {clients: jobClients, size: jobSize, setups: 5, build: newFleet,
		busy: []string{"store.hits", "store.misses", "dist.cells_forwarded", "dist.cells_from_store",
			"sim.lane_run_ms", "api.stream_bytes", "llc.demand_accesses"}},
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// window is one timed window's raw figures.
type window struct {
	lat       []time.Duration // per unit
	tail      []time.Duration // per batch, where units report them
	cells     int
	attempted int
	errs      []error
	elapsed   time.Duration
}

// measure runs the timed window: every client calls unit back to back until
// the window closes; the unit in flight at the deadline finishes and counts.
func measure(ctx context.Context, w workloadDef, inst instance, length time.Duration) *window {
	var (
		mu      sync.Mutex
		win     = &window{}
		lastEnd time.Time
		wg      sync.WaitGroup
	)
	start := time.Now()
	deadline := start.Add(length)
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for n := 0; time.Now().Before(deadline) && ctx.Err() == nil; n++ {
				t := time.Now()
				r, err := inst.unit(ctx, c, n)
				end := time.Now()
				mu.Lock()
				win.attempted++
				if err != nil {
					win.errs = append(win.errs, fmt.Errorf("client %d unit %d: %w", c, n, err))
				} else {
					win.lat = append(win.lat, end.Sub(t))
					win.tail = append(win.tail, r.tail...)
					win.cells += r.cells
				}
				if end.After(lastEnd) {
					lastEnd = end
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	win.elapsed = lastEnd.Sub(start)
	return win
}

// metric is one named figure of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// timedRun is the --trace 0 run: w.setups builds, each timed from its own
// start (setup_s is their median), one timed window on the last build, then
// the correctness checks.
func timedRun(ctx context.Context, w workloadDef, o *options) (*result, error) {
	var (
		setups []time.Duration
		inst   instance
	)
	for round := 0; round < w.setups; round++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, fmt.Errorf("closing setup round %d: %w", round-1, err)
			}
		}
		t0 := time.Now()
		var err error
		if inst, err = w.build(ctx, o, round); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0))
	}
	defer inst.close()
	fmt.Printf("# setup rounds: %s\n", fmtDurations(setups))

	win := measure(ctx, w, inst, o.window)
	rss := peakRSSMB()
	res := finish(ctx, inst, win)
	if win.elapsed <= 0 || len(win.lat) == 0 {
		return nil, fmt.Errorf("no unit completed in the window (%d failed)", len(win.errs))
	}

	p50 := median(win.lat)
	tail, tailWhat := win.lat, "units"
	if len(win.tail) > 0 {
		tail, tailWhat = win.tail, "batches"
	}
	p90, beyond := percentile(tail, 0.90)
	fmt.Printf("# window: %d units, %d cells in %.3fs\n", len(win.lat), win.cells, win.elapsed.Seconds())
	fmt.Printf("# p50_ms over %d units; p90_ms over %d %s, %d beyond it\n", len(win.lat), len(tail), tailWhat, beyond)
	if beyond < 10 {
		fmt.Printf("# warning: p90_ms has only %d samples beyond it\n", beyond)
	}
	res.Metrics = map[string]metric{
		"cells_per_s": {float64(win.cells) / win.elapsed.Seconds(), "1/s"},
		"p50_ms":      {ms(p50), "ms"},
		"p90_ms":      {ms(p90), "ms"},
		"peak_rss_mb": {rss, "MB"},
		"setup_s":     {median(setups).Seconds(), "s"},
	}
	return res, nil
}

// finish runs the post-window checks, prints the digests and failures, and
// fills in the result's accounting.
func finish(ctx context.Context, inst instance, win *window) *result {
	checked, bad := inst.check(ctx)
	errs := append(win.errs, bad...)
	first, all := inst.digests()
	fmt.Printf("# stats_sha256 first unit: %s\n", first)
	fmt.Printf("# stats_sha256 all %d units: %s\n", len(win.lat), all)
	for i, err := range errs {
		if i == 20 {
			fmt.Printf("# ... %d more failures\n", len(errs)-i)
			break
		}
		fmt.Printf("# FAILED: %v\n", err)
	}
	return &result{
		Correct:   len(errs) == 0,
		Attempted: win.attempted + checked,
		Failed:    len(errs),
	}
}

// scratchDir makes the run's private directory under .bench_build in the
// working directory (the checkout root).
func scratchDir(name string) (string, error) {
	base := filepath.Join(".bench_build", "run")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, name+"-*")
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func fmtDurations(ds []time.Duration) string {
	parts := make([]string, len(ds))
	for i, d := range ds {
		parts[i] = fmt.Sprintf("%.3fs", d.Seconds())
	}
	return strings.Join(parts, " ")
}
