// Package experiments contains one driver per table and figure of the
// paper's evaluation (the full index lives in DESIGN.md §4). Each driver
// regenerates the corresponding rows/series: the workload population, the
// parameter sweep, the baselines, and the metric the paper plots.
//
// Every driver runs at "harness scale": the machine and the workload
// footprints are shrunk by the same factor (Params.Scale) so that
// footprint-to-capacity ratios — the quantity replacement behavior depends
// on — match the full-size system while simulating orders of magnitude
// fewer instructions. Absolute percentages therefore differ from the paper;
// the shape (who wins, orderings, crossovers) is what EXPERIMENTS.md
// compares.
package experiments

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"os"
	"runtime"
	"strconv"

	"drishti/internal/obs"
	"drishti/internal/sim"
	"drishti/internal/workload"
)

// Params control experiment scale. Environment variables override the
// defaults for full-fidelity runs: DRISHTI_SCALE, DRISHTI_INSTR,
// DRISHTI_WARMUP, DRISHTI_MIXES, DRISHTI_SEED, DRISHTI_PARALLEL.
type Params struct {
	Scale        int    // machine + workload shrink factor
	Instructions uint64 // measured instructions per core
	Warmup       uint64 // warmup instructions per core
	Mixes        int    // mixes per category (≤35 homogeneous + ≤35 hetero)
	Seed         uint64

	// Context, when non-nil, cancels in-flight experiments: sweeps stop
	// dispatching mixes and running simulations abort with a wrapped
	// ctx.Err(). The zero value behaves exactly like context.Background —
	// results are bit-identical to an uncancellable run.
	Context context.Context

	// Parallelism bounds how many simulations run concurrently. 0 means
	// GOMAXPROCS. Sweeps split it between the lane workers of each mix's
	// lockstep batch and concurrent mixes, lanes first: a batch gets up to
	// two lane workers (the largest count at which one batch was measured
	// to keep up with two concurrent ones), never more than the largest
	// lane count among the sweep's batches; concurrent mixes =
	// Parallelism / lane workers, at least one, and when there are fewer
	// mixes than that the lanes take what they leave. Each batch in flight
	// holds its own shared streams and lane machines, so this keeps fewer
	// in flight than mixes first would. Results are bit-identical at every
	// setting; 1 runs one lane at a time.
	Parallelism int

	// Logger receives the structured run log (one line per sweep cell with
	// a stable run ID). Nil discards.
	Logger *slog.Logger

	// Progress, when non-nil, receives live sweep accounting (cells
	// dispatched/completed). Sweeps served from the memo cache do no work
	// and are not counted.
	Progress *obs.Progress

	// TelemetryEpoch/TelemetrySink enable the sim-level epoch snapshotter
	// for every run of record (see sim.Config). The sink is shared by all
	// concurrent cells and must be safe for concurrent use; epochs are
	// tagged with the mix name and carry the policy name.
	TelemetryEpoch uint64
	TelemetrySink  obs.EpochSink
}

// ctx returns the cancellation context, defaulting to Background.
func (p Params) ctx() context.Context {
	if p.Context != nil {
		return p.Context
	}
	return context.Background()
}

// logger returns the run log, defaulting to discard.
func (p Params) logger() *slog.Logger {
	if p.Logger != nil {
		return p.Logger
	}
	return obs.Discard()
}

// Parallel returns the effective worker-pool size (>= 1).
func (p Params) Parallel() int {
	if p.Parallelism > 0 {
		return p.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// DefaultParams returns harness-scale defaults, honoring the DRISHTI_*
// environment overrides.
func DefaultParams() Params {
	p := Params{Scale: 8, Instructions: 200_000, Warmup: 50_000, Mixes: 4, Seed: 1}
	if v, ok := envInt("DRISHTI_SCALE"); ok {
		p.Scale = v
	}
	if v, ok := envInt("DRISHTI_INSTR"); ok {
		p.Instructions = uint64(v)
	}
	if v, ok := envInt("DRISHTI_WARMUP"); ok {
		p.Warmup = uint64(v)
	}
	if v, ok := envInt("DRISHTI_MIXES"); ok {
		p.Mixes = v
	}
	if v, ok := envInt("DRISHTI_SEED"); ok {
		p.Seed = uint64(v)
	}
	if v, ok := envInt("DRISHTI_PARALLEL"); ok {
		p.Parallelism = v
	}
	return p
}

func envInt(name string) (int, bool) {
	s := os.Getenv(name)
	if s == "" {
		return 0, false
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0, false
	}
	return v, true
}

// Experiment is one reproducible table/figure.
type Experiment struct {
	ID    string // e.g. "fig13"
	Title string
	Run   func(p Params, w io.Writer) error
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"fig02", "Fraction of PCs per core mapping demand loads to one LLC slice", Fig02PCScatter},
		{"fig03", "ETR views for a hot PC: myopic vs global vs oracle", Fig03ETRViews},
		{"fig04", "Frequency distribution of ETRs and RRIPs, myopic vs global", Fig04FreqDist},
		{"fig05", "MPKA per LLC set for mcf/gcc/lbm-like workloads", Fig05SetMPKA},
		{"tab01", "Speedup with MPKA-ranked sampled-set selection (Mockingjay, mcf)", Tab01SampledSetCases},
		{"tab02", "Design space: global sampled cache vs global predictor traffic", Tab02DesignSpace},
		{"fig10", "Predictor accesses per kilo instruction: centralized vs per-core", Fig10PredictorAPKI},
		{"fig11a", "Slowdown of D-Mockingjay without the low-latency interconnect", Fig11aNoNocstar},
		{"fig11b", "Predictor-interconnect latency sensitivity (32 cores)", Fig11bLatencySweep},
		{"tab03", "Per-core hardware budget with and without Drishti", Tab03Budget},
		{"fig13", "Normalized weighted speedup on 4/16/32 cores", Fig13MainPerf},
		{"fig14", "LLC miss reduction over LRU", Fig14MissReduction},
		{"tab05", "Average LLC WPKI", Tab05WPKI},
		{"fig15", "Uncore energy normalized to LRU", Fig15Energy},
		{"tab06", "WS / HS / Unfairness / MIS on 32 cores", Tab06Metrics},
		{"fig16", "Per-mix sorted performance, Mockingjay vs D-Mockingjay", Fig16PerMix},
		{"fig17", "Utility of each enhancement (global view, then +DSC)", Fig17Ablation},
		{"fig18", "ETR values with Drishti (xalan)", Fig18DrishtiETR},
		{"fig19", "Drishti on CVP1/Cloud/datacenter/XSBench-like workloads", Fig19OtherWorkloads},
		{"fig20", "LLC slice size sensitivity", Fig20LLCSize},
		{"fig21", "L2 size sensitivity", Fig21L2Size},
		{"fig22", "DRAM channel sensitivity", Fig22DRAMChannels},
		{"fig23", "Drishti with state-of-the-art prefetchers", Fig23Prefetchers},
		{"tab07", "Applicability across LLC replacement policies", Tab07Applicability},
		{"tab08", "Drishti with SHiP++, CHROME, and Glider", Tab08OtherPolicies},
		{"scal", "64/128-core scalability (Section 5.3 text)", Scalability},
		{"extA", "EXTENSION: Drishti across the remaining Table 7 policies", ExtApplicability},
		{"extB", "EXTENSION: substrate fidelity ablation (MSHRs, inclusion)", FidelityAblation},
	}
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// --- shared helpers ----------------------------------------------------------

// config builds the scaled machine for an experiment.
func (p Params) config(cores int) sim.Config {
	cfg := sim.ScaledConfig(cores, p.Scale)
	cfg.Instructions = p.Instructions
	cfg.Warmup = p.Warmup
	cfg.Seed = p.Seed
	cfg.TelemetryEpoch = p.TelemetryEpoch
	cfg.TelemetrySink = p.TelemetrySink
	return cfg
}

// scaleModels shrinks workload models to match the machine.
func (p Params) scaleModels(cfg sim.Config, models []workload.Model) []workload.Model {
	return workload.ScaleAll(models, p.Scale, cfg.SetIndexBits())
}

// paperMixes returns the scaled evaluation population, subsetted to
// p.Mixes homogeneous + p.Mixes heterogeneous mixes. Homogeneous picks are
// spread across the model list so every archetype is represented.
func (p Params) paperMixes(cfg sim.Config, cores int) []workload.Mix {
	models := p.scaleModels(cfg, workload.AllSPECGAP())
	homo := workload.HomogeneousMixes(models, cores, p.Seed)
	homo = spread(homo, p.Mixes)
	het := workload.HeterogeneousMixes(models, cores, p.Mixes, p.Seed^0xdeadbeef)
	return append(homo, het...)
}

// homoMix builds one scaled homogeneous mix by (partial) model name.
func (p Params) homoMix(cfg sim.Config, cores int, nameSubstr string) (workload.Mix, error) {
	for _, m := range workload.AllSPECGAP() {
		if contains(m.Name, nameSubstr) {
			scaled := m.Scale(p.Scale, cfg.SetIndexBits())
			return workload.Homogeneous(scaled, cores, p.Seed), nil
		}
	}
	return workload.Mix{}, fmt.Errorf("experiments: no model matching %q", nameSubstr)
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// spread picks n entries evenly from xs, preserving order.
func spread[T any](xs []T, n int) []T {
	if n >= len(xs) {
		return xs
	}
	if n <= 0 {
		return nil
	}
	out := make([]T, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, xs[(i*len(xs))/n])
	}
	return out
}

// geomean of normalized speedups, as the paper averages across mixes.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	prod := 1.0
	for _, x := range xs {
		prod *= x
	}
	return pow(prod, 1/float64(len(xs)))
}

func pctOver(x float64) float64 { return (x - 1) * 100 }
