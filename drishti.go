// Package drishti is a from-scratch, trace-driven many-core cache-hierarchy
// simulator built to reproduce "Drishti: Do Not Forget Slicing While
// Designing Last-Level Cache Replacement Policies for Many-Core Systems"
// (MICRO 2025).
//
// The library models sliced NUCA last-level caches with state-of-the-art
// replacement policies (Hawkeye, Mockingjay, SHiP++, Glider-lite,
// CHROME-lite) and Drishti's two enhancements:
//
//   - a per-core yet global reuse predictor reached over a dedicated
//     low-latency interconnect (NOCSTAR), replacing the myopic per-slice
//     predictors, and
//   - a dynamic sampled cache that samples the LLC sets with the highest
//     capacity demand instead of random sets.
//
// # Quick start
//
//	cfg := drishti.DefaultConfig(4)
//	cfg.Policy = drishti.PolicySpec{Name: "mockingjay", Drishti: true}
//	mix := drishti.Homogeneous(drishti.SPECModels()[0], 4, 1)
//	res, err := drishti.RunMix(cfg, mix)
//
// Every experiment from the paper's evaluation section is runnable through
// Experiments / RunExperiment (or the cmd/drishti-bench binary), and the
// go-test benchmarks in bench_test.go regenerate each table and figure.
package drishti

import (
	"context"
	"io"

	"drishti/internal/experiments"
	"drishti/internal/fabric"
	"drishti/internal/metrics"
	"drishti/internal/policies"
	"drishti/internal/sim"
	"drishti/internal/trace"
	"drishti/internal/workload"
)

// Core simulation types, re-exported from the internal packages so that the
// public API is a single import.
type (
	// Config describes a simulated system (geometry, latencies, policy,
	// prefetchers, instruction budget). See DefaultConfig.
	Config = sim.Config
	// Result is everything one run produces (per-core IPC, MPKI/WPKI,
	// traffic, energy, policy budget).
	Result = sim.Result
	// System is an assembled machine; use New for custom workloads or
	// RunMix for the common path.
	System = sim.System
	// MixOutcome bundles a run with its multi-core metrics.
	MixOutcome = sim.MixOutcome

	// PolicySpec selects a replacement policy and its Drishti
	// configuration.
	PolicySpec = policies.Spec
	// Placement is the predictor placement (Local, Centralized,
	// PerCoreGlobal, ...).
	Placement = fabric.Placement

	// Model is a synthetic workload program.
	Model = workload.Model
	// Mix assigns one model per core.
	Mix = workload.Mix
	// StreamSpec parameterizes one access stream of a Model.
	StreamSpec = workload.StreamSpec

	// TraceReader is the instruction stream interface consumed by cores.
	TraceReader = trace.Reader
	// TraceRec is one memory instruction plus its preceding gap.
	TraceRec = trace.Rec

	// Multi holds the WS/HS/MIS/unfairness metrics of Section 5.2.
	Multi = metrics.Multi

	// Experiment is one reproducible table/figure from the paper.
	Experiment = experiments.Experiment
	// ExperimentParams controls experiment scale.
	ExperimentParams = experiments.Params

	// BatchVariant is one lane of a lockstep batch (see RunBatch).
	BatchVariant = sim.Variant
)

// Predictor placements (Table 2's design space).
const (
	PlacementLocal               = fabric.Local
	PlacementCentralized         = fabric.Centralized
	PlacementPerCoreGlobal       = fabric.PerCoreGlobal
	PlacementGlobalSCCentralized = fabric.GlobalSCCentralized
	PlacementGlobalSCDistributed = fabric.GlobalSCDistributed
)

// DefaultConfig returns the paper's Table 4 baseline system for the given
// core count (2 MB LLC slice per core, 512 KB L2, 48 KB L1D, mesh NoC,
// one DRAM channel per four cores).
func DefaultConfig(cores int) Config { return sim.DefaultConfig(cores) }

// ScaledConfig returns the baseline machine shrunk by scale for
// harness-speed runs; pair it with Model.Scale (see DESIGN.md §4).
func ScaledConfig(cores, scale int) Config { return sim.ScaledConfig(cores, scale) }

// New assembles a system over per-core trace readers (nil entries leave a
// core idle).
func New(cfg Config, readers []TraceReader) (*System, error) { return sim.New(cfg, readers) }

// The *Context entrypoints below are the canonical run functions: they
// accept a context for cooperative cancellation, and a context that is
// never cancelled produces results bit-identical to the non-context form.
// The context-free variants are one-line wrappers collected in compat.go;
// new code should call the *Context forms.

// RunMixContext builds and runs a system over a workload mix. The
// simulation aborts with a wrapped ctx.Err() once ctx is done.
func RunMixContext(ctx context.Context, cfg Config, mix Mix) (*Result, error) {
	return sim.RunMixContext(ctx, cfg, mix)
}

// RunAloneContext measures each core's alone IPC for the weighted-speedup
// metrics, running the independent per-core systems on up to GOMAXPROCS
// workers. Results are identical at every parallelism.
func RunAloneContext(ctx context.Context, cfg Config, mix Mix) ([]float64, error) {
	return sim.RunAloneContext(ctx, cfg, mix)
}

// RunAloneNContext is RunAloneContext with an explicit worker-pool bound
// (parallelism <= 1 runs serially).
func RunAloneNContext(ctx context.Context, cfg Config, mix Mix, parallelism int) ([]float64, error) {
	return sim.RunAloneNContext(ctx, cfg, mix, parallelism)
}

// RunBatchContext runs several policy/alone variants of one base
// configuration over a single shared generation of the mix's access
// streams, in lockstep. Each lane's result is bit-identical to running
// that configuration alone through RunMixContext (or to the corresponding
// alone run), so batching is purely a throughput optimization — one
// workload generation (and, when the configuration has no prefetchers and
// a non-inclusive LLC, one private L1/L2 simulation) is shared by all
// lanes. Results align with variants.
func RunBatchContext(ctx context.Context, base Config, variants []BatchVariant, mix Mix) ([]*Result, error) {
	return sim.RunBatchContext(ctx, base, variants, mix)
}

// RunWithMetricsContext runs a mix and computes WS/HS/MIS/unfairness
// against the supplied alone-IPC vector.
func RunWithMetricsContext(ctx context.Context, cfg Config, mix Mix, aloneIPC []float64) (*MixOutcome, error) {
	return sim.RunWithMetricsContext(ctx, cfg, mix, aloneIPC)
}

// ComputeMetrics derives WS/HS/MIS/unfairness from together and alone IPCs.
func ComputeMetrics(together, alone []float64) (Multi, error) {
	return metrics.Compute(together, alone)
}

// --- workloads ---------------------------------------------------------------

// SPECModels returns the 23 SPEC CPU2017-like workload models.
func SPECModels() []Model { return workload.SPECModels() }

// GAPModels returns the 12 GAP-like workload models.
func GAPModels() []Model { return workload.GAPModels() }

// AllSPECGAP returns the full 35-benchmark population of the main results.
func AllSPECGAP() []Model { return workload.AllSPECGAP() }

// Fig19Models returns the CVP1/CloudSuite/datacenter/XSBench-like models.
func Fig19Models() []Model { return workload.Fig19Models() }

// ModelByName looks a model up by exact name.
func ModelByName(name string) (Model, bool) { return workload.ByName(name) }

// Homogeneous builds a mix where every core runs model (distinct seeds).
func Homogeneous(model Model, cores int, seed uint64) Mix {
	return workload.Homogeneous(model, cores, seed)
}

// PaperMixes builds the paper's 35 homogeneous + 35 heterogeneous mixes.
func PaperMixes(cores int, seed uint64) []Mix { return workload.PaperMixes(cores, seed) }

// HeterogeneousMixes builds count random mixes from the model population.
func HeterogeneousMixes(models []Model, cores, count int, seed uint64) []Mix {
	return workload.HeterogeneousMixes(models, cores, count, seed)
}

// NewGenerator builds a deterministic trace generator for a model.
func NewGenerator(model Model, seed uint64) (TraceReader, error) {
	return workload.NewGenerator(model, seed)
}

// --- policies ----------------------------------------------------------------

// KnownPolicies lists the replacement policies RunMix accepts.
func KnownPolicies() []string { return policies.KnownPolicies() }

// BoolPtr is a convenience for PolicySpec literals.
func BoolPtr(v bool) *bool { return policies.BoolPtr(v) }

// PlacementPtr is a convenience for PolicySpec literals.
func PlacementPtr(p Placement) *Placement { return policies.PlacementPtr(p) }

// --- experiments ---------------------------------------------------------------

// Experiments returns every reproducible table/figure in paper order.
func Experiments() []Experiment { return experiments.All() }

// ExperimentByID returns one experiment ("fig13", "tab05", ...).
func ExperimentByID(id string) (Experiment, bool) { return experiments.ByID(id) }

// DefaultExperimentParams returns harness-scale parameters, honoring the
// DRISHTI_SCALE / DRISHTI_INSTR / DRISHTI_WARMUP / DRISHTI_MIXES /
// DRISHTI_SEED / DRISHTI_PARALLEL environment overrides. Lane workers
// have no override: sweeps derive them from Parallelism.
func DefaultExperimentParams() ExperimentParams { return experiments.DefaultParams() }

// RunExperimentContext runs one experiment under ctx, writing its table
// to w.
func RunExperimentContext(ctx context.Context, id string, p ExperimentParams, w io.Writer) error {
	e, ok := experiments.ByID(id)
	if !ok {
		return &UnknownExperimentError{ID: id}
	}
	return e.RunContext(ctx, p, w)
}

// UnknownExperimentError reports a bad experiment ID.
type UnknownExperimentError struct{ ID string }

// Error implements error.
func (e *UnknownExperimentError) Error() string {
	return "drishti: unknown experiment " + e.ID + " (see Experiments())"
}
