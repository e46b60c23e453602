// Command drishti-bench regenerates the paper's tables and figures.
//
//	drishti-bench -list                  # show all experiments
//	drishti-bench fig13                  # run one experiment
//	drishti-bench all                    # run every experiment in order
//	drishti-bench -mixes 8 -instr 400000 fig13 fig14
//	drishti-bench -parallel 1 fig13      # force the serial sweep path
//	drishti-bench -telemetry epochs.ndjson -telemetry-epoch 50000 fig13
//	drishti-bench -http :8080 all        # serve /metrics + /debug/pprof
//	drishti-bench -scenario spec.yaml    # run a declarative scenario spec
//
// Scale flags (or DRISHTI_* environment variables) trade fidelity for time;
// see EXPERIMENTS.md for the settings used in the recorded results.
// Sweeps fan out onto a bounded worker pool (-parallel, default GOMAXPROCS
// or $DRISHTI_PARALLEL); results are bit-identical at every setting.
// Observability is additive: sweep progress streams to stderr (suppressed
// by -quiet), structured run logs go to stderr, -telemetry records the
// per-epoch time series (see EXPERIMENTS.md "Observability"), and -http
// serves live metrics and pprof. None of it changes simulation results.
// -cpuprofile/-memprofile write pprof profiles for simulator perf work.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"drishti/internal/buildinfo"
	"drishti/internal/cliconf"
	"drishti/internal/experiments"
	"drishti/internal/obs"
	"drishti/internal/scenario"
)

func main() { os.Exit(run()) }

// run carries the real main so profile defers fire before the process
// exits (os.Exit skips deferred calls).
func run() int {
	cc := cliconf.New(flag.CommandLine)
	var (
		version    = flag.Bool("version", false, "print version and exit")
		list       = flag.Bool("list", false, "list experiments and exit")
		scale      = cc.Int("scale", "DRISHTI_SCALE", 8, "machine/workload shrink factor")
		instr      = cc.Uint64("instr", "DRISHTI_INSTR", 200_000, "instructions per core")
		warmup     = cc.Uint64("warmup", "DRISHTI_WARMUP", 50_000, "warmup instructions per core")
		mixes      = cc.Int("mixes", "DRISHTI_MIXES", 4, "mixes per category")
		seed       = cc.Uint64("seed", "DRISHTI_SEED", 1, "workload seed")
		parallel   = cc.Int("parallel", "DRISHTI_PARALLEL", 0, "sweep worker-pool size (0 = GOMAXPROCS; 1 = serial)")
		laneWkrs   = cc.Int("lane-workers", "DRISHTI_LANE_WORKERS", 0, "concurrent lanes per batched mix; composes with -parallel as mixes × lanes ≤ budget (0 = derived; bit-identical at every setting)")
		quiet      = flag.Bool("quiet", false, "suppress progress and info-level run logs")
		telem      = cc.Telemetry()
		httpAddr   = flag.String("http", "", "serve /metrics and /debug/pprof on `addr` (e.g. :8080)")
		cpuprofile = flag.String("cpuprofile", "", "write a pprof CPU profile to `file`")
		memprofile = flag.String("memprofile", "", "write a pprof heap profile to `file` at exit")
		scenarioF  = flag.String("scenario", "", "run a declarative scenario spec `file` (YAML or JSON) through the sweep harness instead of a named experiment")
	)
	flag.Parse()
	log := obs.NewLogger(os.Stderr, "drishti-bench", *quiet)
	if err := cc.Resolve(); err != nil {
		log.Error("flag/env resolution", "err", err)
		return 2
	}

	if *version {
		fmt.Println("drishti-bench", buildinfo.Read())
		return 0
	}
	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return 0
	}

	// Every scale knob resolves through cliconf (flag > DRISHTI_* env >
	// default), so the Params can be assembled unconditionally.
	p := experiments.Params{
		Scale:        *scale,
		Instructions: *instr,
		Warmup:       *warmup,
		Mixes:        *mixes,
		Seed:         *seed,
		Parallelism:  *parallel,
		LaneWorkers:  *laneWkrs,
	}
	p.Logger = log

	args := flag.Args()
	if len(args) == 0 && *scenarioF == "" {
		fmt.Fprintln(os.Stderr, "usage: drishti-bench [-list] [flags] <experiment-id>... | all")
		fmt.Fprintln(os.Stderr, "       drishti-bench [flags] -scenario spec.yaml")
		fmt.Fprintln(os.Stderr, "run 'drishti-bench -list' to see experiment IDs")
		return 2
	}

	// The progress reporter always runs so -http /metrics reflects sweep
	// state even under -quiet; quiet only silences the stderr status line.
	reg := obs.NewRegistry()
	progressOut := io.Writer(os.Stderr)
	if *quiet {
		progressOut = io.Discard
	}
	p.Progress = obs.NewProgress(progressOut, "sweep").Attach(reg, "sweep_cells")
	defer p.Progress.Finish()

	sink, closer, err := telem.Open()
	if err != nil {
		log.Error("telemetry", "err", err)
		return 2
	}
	if closer != nil {
		defer closer.Close()
	}
	if sink != nil {
		p.TelemetrySink = sink
		p.TelemetryEpoch = *telem.Epoch
	}

	if *httpAddr != "" {
		srv, err := obs.Serve(*httpAddr, reg)
		if err != nil {
			log.Error("http server", "err", err)
			return 1
		}
		defer srv.Close()
		log.Info("serving metrics and pprof", "addr", srv.Addr)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Error("-cpuprofile", "err", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Error("-cpuprofile", "err", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				log.Error("-memprofile", "err", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows retention
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Error("-memprofile", "err", err)
			}
		}()
	}

	if *scenarioF != "" {
		spec, err := scenario.Load(*scenarioF)
		if err != nil {
			log.Error("scenario", "err", err)
			return 1
		}
		c, err := spec.Compile(filepath.Dir(*scenarioF))
		if err != nil {
			log.Error("scenario", "err", err)
			return 1
		}
		t0 := time.Now()
		if err := experiments.RunScenario(p, c, os.Stdout); err != nil {
			log.Error("scenario failed", "name", c.Spec.Name, "err", err)
			return 1
		}
		log.Info("scenario done", "name", c.Spec.Name, "elapsed", time.Since(t0).Round(time.Millisecond))
		if len(args) == 0 {
			return 0
		}
	}

	var ids []string
	if len(args) == 1 && args[0] == "all" {
		for _, e := range experiments.All() {
			ids = append(ids, e.ID)
		}
	} else {
		ids = args
	}

	for _, id := range ids {
		e, ok := experiments.ByID(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "drishti-bench: unknown experiment %q (try -list)\n", id)
			return 2
		}
		t0 := time.Now()
		if err := e.Run(p, os.Stdout); err != nil {
			log.Error("experiment failed", "id", id, "err", err)
			return 1
		}
		elapsed := time.Since(t0).Round(time.Millisecond)
		log.Info("experiment done", "id", id, "elapsed", elapsed)
		fmt.Printf("-- %s done in %v\n\n", id, elapsed)
	}
	return 0
}
