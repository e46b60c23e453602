package sim

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"drishti/internal/metrics"
	"drishti/internal/trace"
	"drishti/internal/workload"
)

// Readers builds the per-core trace readers for a mix.
func Readers(mix workload.Mix) ([]trace.Reader, error) {
	if err := mix.Validate(); err != nil {
		return nil, err
	}
	readers := make([]trace.Reader, mix.Cores())
	for c := range readers {
		r, err := workload.NewReader(mix, c)
		if err != nil {
			return nil, err
		}
		readers[c] = r
	}
	return readers, nil
}

// RunMixContext builds and runs a system over a workload mix, aborting
// with a wrapped ctx.Err() once ctx is done. When telemetry is on and no
// tag was set, epochs are tagged with the mix name. Cancellation never
// changes results — a run either completes bit-identically to an
// uncancellable run or returns an error.
func RunMixContext(ctx context.Context, cfg Config, mix workload.Mix) (*Result, error) {
	if mix.Cores() != cfg.Cores {
		return nil, fmt.Errorf("sim: mix %s targets %d cores, config has %d", mix.Name, mix.Cores(), cfg.Cores)
	}
	if cfg.TelemetryEpoch > 0 && cfg.TelemetryTag == "" {
		cfg.TelemetryTag = mix.Name
	}
	readers, err := Readers(mix)
	if err != nil {
		return nil, err
	}
	sys, err := New(cfg, readers)
	if err != nil {
		return nil, err
	}
	return sys.RunContext(ctx)
}

// RunAloneContext measures each core's alone IPC: the same machine (all
// LLC slices available) with only that core active, per the metric
// definitions in Section 5.2. The returned vector aligns with the mix's
// cores. The per-core runs are independent systems and execute
// concurrently on up to GOMAXPROCS workers; use RunAloneNContext to
// bound the pool explicitly.
func RunAloneContext(ctx context.Context, cfg Config, mix workload.Mix) ([]float64, error) {
	return RunAloneNContext(ctx, cfg, mix, runtime.GOMAXPROCS(0))
}

// RunAloneNContext is RunAloneContext with an explicit worker-pool
// bound. Each alone-run is a deterministic, self-contained System, so
// the results are identical for every parallelism; parallelism <= 1 runs
// one core at a time. Cancellation stops dispatching further cores and
// aborts the in-flight ones. On failure the error of the lowest-numbered
// failing core is returned.
func RunAloneNContext(ctx context.Context, cfg Config, mix workload.Mix, parallelism int) ([]float64, error) {
	if mix.Cores() != cfg.Cores {
		return nil, fmt.Errorf("sim: mix %s targets %d cores, config has %d", mix.Name, mix.Cores(), cfg.Cores)
	}
	out := make([]float64, cfg.Cores)
	var (
		mu       sync.Mutex
		firstErr error
		errCore  = cfg.Cores
		wg       sync.WaitGroup
		sem      = make(chan struct{}, max(min(parallelism, cfg.Cores), 1))
	)
	for c := 0; c < cfg.Cores; c++ {
		sem <- struct{}{}
		// Checked after taking a slot, so a pool of one has finished the
		// previous core and starts nothing after a failure. Every core
		// below the recorded error has already been dispatched (dispatch
		// is in core order), so the min-core error below is the same at
		// every parallelism.
		mu.Lock()
		failed := firstErr != nil
		mu.Unlock()
		if failed {
			break
		}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			defer func() { <-sem }()
			res, err := runAloneCore(ctx, cfg, mix, c)
			if err != nil {
				mu.Lock()
				if c < errCore {
					errCore, firstErr = c, err
				}
				mu.Unlock()
				return
			}
			out[c] = res.PerCore[c].IPC
		}(c)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// runAloneCore runs the machine with only core c active. Alone runs are
// IPC calibration, not the run of record, so telemetry is disabled — the
// concurrent per-core systems would otherwise interleave epochs under one
// tag in the shared sink.
func runAloneCore(ctx context.Context, cfg Config, mix workload.Mix, c int) (*Result, error) {
	cfg.TelemetryEpoch, cfg.TelemetrySink, cfg.TelemetryTag = 0, nil, ""
	readers := make([]trace.Reader, cfg.Cores)
	r, err := workload.NewReader(mix, c)
	if err != nil {
		return nil, err
	}
	readers[c] = r
	sys, err := New(cfg, readers)
	if err != nil {
		return nil, err
	}
	return sys.RunContext(ctx)
}

// MixOutcome bundles a together-run with its multi-core metrics.
type MixOutcome struct {
	Result  *Result
	Metrics metrics.Multi
}

// RunWithMetricsContext runs the mix and computes WS/HS/MIS/unfairness
// against the supplied alone-IPC vector (typically measured once per mix
// on the LRU baseline and shared across policies; see DESIGN.md §4 scale
// note).
func RunWithMetricsContext(ctx context.Context, cfg Config, mix workload.Mix, aloneIPC []float64) (*MixOutcome, error) {
	res, err := RunMixContext(ctx, cfg, mix)
	if err != nil {
		return nil, err
	}
	m, err := metrics.Compute(res.IPCs(), aloneIPC)
	if err != nil {
		return nil, err
	}
	return &MixOutcome{Result: res, Metrics: m}, nil
}
