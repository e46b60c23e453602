// Command drishti-sim runs one simulation configuration and prints a
// detailed report: per-core IPC, LLC MPKI/WPKI, DRAM and interconnect
// traffic, energy, and the policy's hardware budget.
//
//	drishti-sim -cores 16 -policy mockingjay -drishti -workload 605.mcf_s-1554B
//	drishti-sim -cores 4 -policy hawkeye -mix hetero -instr 400000
//	drishti-sim -cores 4 -policy hawkeye -drishti -telemetry epochs.ndjson
//
// -telemetry records the per-epoch time series (slice miss rates, predictor
// bank activity, DSC utilization, NoC traffic) without changing the result;
// see EXPERIMENTS.md "Observability" for the schema.
//
// -trace-timeline renders a span journal written by drishti-served (the
// trace.journal next to its store) as per-node swimlane timelines with the
// critical path highlighted, then exits:
//
//	drishti-sim -trace-timeline drishti.store/trace.journal
//
// -scenario runs a declarative scenario spec (YAML or JSON; see README
// "Scenario specs") instead of the flag-built single run: every sweep
// config × policy in the file executes and reports. -check compiles and
// prints the scenario — runs, mixes, content-address key — without
// simulating:
//
//	drishti-sim -scenario examples/scenarios/bursty-multitenant.yaml
//	drishti-sim -scenario examples/scenarios/server-pressure.yaml -check -json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"drishti/internal/buildinfo"
	"drishti/internal/cliconf"
	"drishti/internal/dram"
	"drishti/internal/metrics"
	"drishti/internal/obs"
	"drishti/internal/obs/trace"
	"drishti/internal/policies"
	"drishti/internal/scenario"
	"drishti/internal/sim"
	"drishti/internal/workload"
)

func main() {
	cc := cliconf.New(flag.CommandLine)
	var (
		version  = flag.Bool("version", false, "print version and exit")
		cores    = flag.Int("cores", 4, "number of cores (= LLC slices)")
		policy   = flag.String("policy", "lru", "replacement policy: "+strings.Join(policies.KnownPolicies(), ", "))
		drishti  = flag.Bool("drishti", false, "apply Drishti's enhancements (D-<policy>)")
		wl       = flag.String("workload", "605.mcf_s-1554B", "model name (substring) for a homogeneous mix, or use -mix hetero")
		mixKind  = flag.String("mix", "homo", "homo | hetero")
		instr    = cc.Uint64("instr", "DRISHTI_INSTR", 200_000, "instructions per core")
		warmup   = cc.Uint64("warmup", "DRISHTI_WARMUP", 50_000, "warmup instructions per core")
		scale    = cc.Int("scale", "DRISHTI_SCALE", 8, "machine/workload shrink factor (1 = full-size 2MB slices)")
		seed     = cc.Uint64("seed", "DRISHTI_SEED", 1, "workload seed")
		l1pf     = flag.String("l1-prefetcher", "next-line", "L1D prefetcher")
		l2pf     = flag.String("l2-prefetcher", "ip-stride", "L2 prefetcher")
		channels = flag.Int("dram-channels", 0, "DRAM channels (0 = cores/4)")
		metricsF = flag.Bool("metrics", false, "also run alone-IPC passes and report WS/HS/MIS/unfairness")
		jsonOut  = flag.Bool("json", false, "emit the full result as JSON instead of the report")
		mshrs    = flag.Bool("mshrs", false, "enforce strict Table 4 MSHR limits (8/16/64)")
		inclus   = flag.Bool("inclusive", false, "inclusive LLC (back-invalidating; baseline is non-inclusive)")
		quiet    = flag.Bool("quiet", false, "suppress info-level run logs")

		telem = cc.Telemetry()

		traceTimeline = flag.String("trace-timeline", "", "render the span journal `file` as per-node timelines and exit")

		scenarioF = flag.String("scenario", "", "run a declarative scenario spec `file` (YAML or JSON) instead of the flag-built run")
		check     = flag.Bool("check", false, "with -scenario: parse, compile, and print the scenario without simulating")
	)
	flag.Parse()
	log = obs.NewLogger(os.Stderr, "drishti-sim", *quiet)
	if err := cc.Resolve(); err != nil {
		fatal(err)
	}

	if *version {
		fmt.Println("drishti-sim", buildinfo.Read())
		return
	}
	if *traceTimeline != "" {
		if err := renderTraceTimelines(os.Stdout, *traceTimeline); err != nil {
			fatal(err)
		}
		return
	}
	if *scenarioF != "" {
		// -instr/-warmup/-seed explicitly set on the command line override
		// the spec for a quick lower-fidelity pass; everything else comes
		// from the file.
		override := func(cfg *sim.Config) {
			flag.Visit(func(f *flag.Flag) {
				switch f.Name {
				case "instr":
					cfg.Instructions = *instr
				case "warmup":
					cfg.Warmup = *warmup
				case "seed":
					cfg.Seed = *seed
				}
			})
		}
		if err := runScenario(os.Stdout, *scenarioF, *check, *jsonOut, override); err != nil {
			fatal(err)
		}
		return
	}
	if !knownPolicy(*policy) {
		fatal(fmt.Errorf("unknown policy %q; known policies:\n  %s",
			*policy, strings.Join(policies.KnownPolicies(), "\n  ")))
	}

	cfg := sim.ScaledConfig(*cores, *scale)
	cfg.Instructions = *instr
	cfg.Warmup = *warmup
	cfg.Seed = *seed
	cfg.Policy = policies.Spec{Name: *policy, Drishti: *drishti}
	cfg.L1Prefetcher = *l1pf
	cfg.L2Prefetcher = *l2pf
	cfg.ModelMSHRs = *mshrs
	cfg.InclusiveLLC = *inclus
	if *channels > 0 {
		d := dram.DefaultConfig(*cores)
		d.Channels = *channels
		cfg.DRAM = d
	}

	sink, closer, err := telem.Open()
	if err != nil {
		fatal(err)
	}
	if closer != nil {
		defer closer.Close()
	}
	if sink != nil {
		cfg.TelemetrySink = sink
		cfg.TelemetryEpoch = *telem.Epoch
	}

	mix, err := buildMix(cfg, *mixKind, *wl, *cores, *scale, *seed)
	if err != nil {
		fatal(err)
	}

	log.Info("running",
		"run", obs.RunID(cfg.Key(), mix.Key()),
		"policy", cfg.Policy.DisplayName(), "mix", mix.Name,
		"cores", *cores, "instr", *instr)

	wantMetrics := *metricsF && !*jsonOut // -json elides the metrics block
	var (
		res   *sim.Result
		alone []float64 // per-core alone IPCs, only under -metrics
	)
	ctx := context.Background()
	if wantMetrics {
		// One lockstep batch: the mix lane plus one alone lane per core
		// share a single generation of the access streams.
		variants := make([]sim.Variant, 1+*cores)
		variants[0] = sim.Variant{Policy: cfg.Policy}
		for c := 0; c < *cores; c++ {
			variants[1+c] = sim.Variant{Policy: cfg.Policy, Alone: true, AloneCore: c}
		}
		var results []*sim.Result
		results, err = sim.RunBatchContext(ctx, cfg, variants, mix)
		if err == nil {
			res = results[0]
			alone = make([]float64, *cores)
			for c := 0; c < *cores; c++ {
				alone[c] = results[1+c].PerCore[c].IPC
			}
		}
	} else {
		res, err = sim.RunMixContext(ctx, cfg, mix)
	}
	if err != nil {
		fatal(err)
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fatal(err)
		}
		return
	}
	report(cfg, mix, res)

	if wantMetrics {
		m, err := metrics.Compute(res.IPCs(), alone)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("\nmulti-core metrics (alone IPCs measured on this config):\n")
		fmt.Printf("  WS=%.4f HS=%.4f unfairness=%.3f max-slowdown=%.1f%%\n",
			m.WS, m.HS, m.Unfairness, m.MaxSlowdown()*100)
	}
}

// renderTraceTimelines reads a span journal and renders one timeline per
// trace, in order of each trace's first appearance in the journal.
func renderTraceTimelines(w io.Writer, path string) error {
	spans, err := trace.ReadJournal(path)
	if err != nil {
		return err
	}
	if len(spans) == 0 {
		return fmt.Errorf("%s: journal holds no spans", path)
	}
	var order []string
	byTrace := make(map[string][]trace.Span)
	for _, sp := range spans {
		if _, ok := byTrace[sp.TraceID]; !ok {
			order = append(order, sp.TraceID)
		}
		byTrace[sp.TraceID] = append(byTrace[sp.TraceID], sp)
	}
	for i, id := range order {
		if i > 0 {
			fmt.Fprintln(w)
		}
		trace.RenderTimeline(w, byTrace[id])
	}
	return nil
}

func knownPolicy(name string) bool {
	for _, k := range policies.KnownPolicies() {
		if name == k {
			return true
		}
	}
	return false
}

// compiledRunJSON is the -scenario -json summary of one compiled run; the
// key fields are the exact content addresses the store and memo caches use.
type compiledRunJSON struct {
	Name         string `json:"name"`
	Cores        int    `json:"cores"`
	SliceKB      int    `json:"sliceKB"`
	Instructions uint64 `json:"instructions"`
	Warmup       uint64 `json:"warmup"`
	Mix          string `json:"mix"`
	CfgKey       string `json:"cfgKey"`
	MixKey       string `json:"mixKey"`
}

type compiledJSON struct {
	Name     string            `json:"name"`
	Version  int               `json:"version"`
	Seed     uint64            `json:"seed"`
	Key      string            `json:"key"`
	Runs     []compiledRunJSON `json:"runs"`
	Policies []string          `json:"policies"`
	Results  []scenarioCell    `json:"results,omitempty"`
}

type scenarioCell struct {
	Run    string      `json:"run"`
	Policy string      `json:"policy"`
	Result *sim.Result `json:"result"`
}

// runScenario loads, compiles, and (unless check) executes a scenario spec.
// Relative trace file paths resolve against the spec file's directory.
func runScenario(w io.Writer, path string, check, jsonOut bool, override func(*sim.Config)) error {
	spec, err := scenario.Load(path)
	if err != nil {
		return err
	}
	c, err := spec.Compile(filepath.Dir(path))
	if err != nil {
		return err
	}
	for i := range c.Runs {
		override(&c.Runs[i].Cfg)
	}
	out := compiledJSON{Name: c.Spec.Name, Version: c.Spec.Version, Seed: c.Spec.Seed, Key: c.Key()}
	for _, r := range c.Runs {
		out.Runs = append(out.Runs, compiledRunJSON{
			Name: r.Name, Cores: r.Cfg.Cores, SliceKB: r.Cfg.SliceKB,
			Instructions: r.Cfg.Instructions, Warmup: r.Cfg.Warmup,
			Mix: r.Mix.Name, CfgKey: r.Cfg.Key(), MixKey: r.Mix.Key(),
		})
	}
	for _, p := range c.Policies {
		out.Policies = append(out.Policies, p.DisplayName())
	}
	if !check {
		// One lockstep batch per run: the policies are its lanes and share
		// a single generation of the run's access streams. Each lane's
		// result is bit-identical to running that policy on its own.
		variants := make([]sim.Variant, len(c.Policies))
		for i, p := range c.Policies {
			variants[i] = sim.Variant{Policy: p}
		}
		for _, r := range c.Runs {
			for _, p := range c.Policies {
				cfg := r.Cfg
				cfg.Policy = p
				log.Info("running", "run", obs.RunID(cfg.Key(), r.Mix.Key()),
					"scenarioRun", r.Name, "policy", p.DisplayName(), "mix", r.Mix.Name)
			}
			results, err := sim.RunBatchContext(context.Background(), r.Cfg, variants, r.Mix)
			if err != nil {
				return fmt.Errorf("scenario run %s: %w", r.Name, err)
			}
			for i, res := range results {
				policy := c.Policies[i].DisplayName()
				if jsonOut {
					out.Results = append(out.Results, scenarioCell{Run: r.Name, Policy: policy, Result: res})
					continue
				}
				fmt.Fprintf(w, "== scenario %s  run=%s  policy=%s\n", c.Spec.Name, r.Name, policy)
				report(r.Cfg, r.Mix, res)
				fmt.Fprintln(w)
			}
		}
	}
	if jsonOut {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(out)
	}
	if check {
		fmt.Fprintf(w, "scenario %s (version %d, seed %d): %d run(s) x %d policy(ies) = %d cells\n",
			out.Name, out.Version, out.Seed, len(out.Runs), len(out.Policies), len(out.Runs)*len(out.Policies))
		for _, r := range out.Runs {
			fmt.Fprintf(w, "  run %-16s cores=%-3d slice=%dKB instr=%d warmup=%d mix=%s\n",
				r.Name, r.Cores, r.SliceKB, r.Instructions, r.Warmup, r.Mix)
		}
		fmt.Fprintf(w, "  policies: %s\n", strings.Join(out.Policies, ", "))
		fmt.Fprintf(w, "  key: %s\n", out.Key)
	}
	return nil
}

func buildMix(cfg sim.Config, kind, wl string, cores, scale int, seed uint64) (workload.Mix, error) {
	models := workload.ScaleAll(workload.AllSPECGAP(), scale, cfg.SetIndexBits())
	switch kind {
	case "hetero":
		return workload.HeterogeneousMixes(models, cores, 1, seed)[0], nil
	case "homo":
		for _, m := range models {
			if strings.Contains(m.Name, wl) {
				return workload.Homogeneous(m, cores, seed), nil
			}
		}
		return workload.Mix{}, fmt.Errorf("no model matching %q; known models:\n  %s",
			wl, strings.Join(workload.Names(workload.AllSPECGAP()), "\n  "))
	default:
		return workload.Mix{}, fmt.Errorf("unknown -mix %q (homo|hetero)", kind)
	}
}

func report(cfg sim.Config, mix workload.Mix, res *sim.Result) {
	fmt.Printf("policy=%s cores=%d slice=%dKB L2=%dKB instr=%d\n",
		res.PolicyName, res.Cores, cfg.SliceKB, cfg.L2KB, cfg.Instructions)
	fmt.Printf("mix=%s\n\n", mix.Name)
	for i, c := range res.PerCore {
		fmt.Printf("  core %-3d %-26s IPC=%.4f  llcMiss=%d/%d\n",
			i, mix.Models[i].Name, c.IPC, c.LLCMisses, c.LLCAccesses)
	}
	fmt.Printf("\naggregate: IPCsum=%.4f  MPKI=%.2f  WPKI=%.2f  APKI=%.2f  bypasses=%d\n",
		res.IPCSum(), res.MPKI, res.WPKI, res.APKI, res.LLC.Bypasses)
	fmt.Printf("dram: reads=%d writes=%d rowHits=%d rowMisses=%d\n",
		res.DRAM.Reads, res.DRAM.Writes, res.DRAM.RowHits, res.DRAM.RowMisses)
	fmt.Printf("noc: meshMsgs=%d meshAvgLat=%.1f starMsgs=%d prefetches=%d\n",
		res.MeshMsgs, res.MeshAvgLat, res.StarMsgs, res.PrefetchesIssued)
	fmt.Printf("energy (mJ): LLC=%.2f DRAM=%.2f NoC=%.2f total=%.2f\n",
		res.Energy.LLC, res.Energy.DRAM, res.Energy.NoC, res.Energy.Total)
	if res.Fabric != nil {
		fmt.Printf("predictor: lookups=%d trainings=%d broadcasts=%d remoteLookups=%d\n",
			res.Fabric.Lookups, res.Fabric.Trainings, res.Fabric.Broadcasts, res.Fabric.RemoteLookups)
	}
	if res.DSCSelections > 0 {
		fmt.Printf("dynamic sampled cache: %d selections, %d uniform fallbacks\n",
			res.DSCSelections, res.DSCUniformFallbacks)
	}
	if len(res.Budget) > 0 {
		keys := make([]string, 0, len(res.Budget))
		for k := range res.Budget {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		total := 0
		fmt.Printf("policy budget per core:")
		for _, k := range keys {
			fmt.Printf(" %s=%.2fKB", k, float64(res.Budget[k])/1024)
			total += res.Budget[k]
		}
		fmt.Printf(" total=%.2fKB\n", float64(total)/1024)
	}
}

// log is installed by main before any simulation; the default covers tests
// calling helpers directly.
var log *slog.Logger = obs.Discard()

func fatal(err error) {
	log.Error("fatal", "err", err)
	os.Exit(1)
}
