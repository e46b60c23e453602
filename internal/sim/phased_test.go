package sim

import (
	"context"
	"testing"

	"drishti/internal/policies"
	"drishti/internal/sampler"
	"drishti/internal/trace"
	"drishti/internal/workload"
)

// TestDynamicSamplerTracksPhases drives a phase-changing workload through
// D-Mockingjay and checks the dynamic sampled cache actually re-selects
// (Section 4.2's phase-change adaptation), and that the run completes with
// sane output despite the churn.
func TestDynamicSamplerTracksPhases(t *testing.T) {
	// The DSC cycle is MonitorLen+ActiveLen = 5×(sets×ways) slice loads
	// (20.5K at harness scale); the run must span several cycles.
	cfg := ScaledConfig(1, 8)
	cfg.Instructions = 1_100_000
	cfg.Warmup = 50_000
	cfg.Policy = policies.Spec{Name: "mockingjay", Drishti: true}

	model := workload.ScalePhased(workload.PhasedMcf(20_000), 8, cfg.SetIndexBits())
	g, err := workload.NewPhasedGenerator(model, 7)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(cfg, []trace.Reader{g})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.PerCore[0].IPC <= 0 {
		t.Fatal("no progress on phased workload")
	}
	dyn, ok := sys.Built().Selectors[0].(*sampler.Dynamic)
	if !ok {
		t.Fatalf("selector %T, want dynamic", sys.Built().Selectors[0])
	}
	if dyn.Selections < 2 {
		t.Fatalf("only %d selections across multiple phases", dyn.Selections)
	}
}

// TestPhasedRunsUnderAllMainPolicies is a robustness sweep: phase churn
// must not break any policy's sampled-state management.
func TestPhasedRunsUnderAllMainPolicies(t *testing.T) {
	for _, spec := range []policies.Spec{
		{Name: "lru"},
		{Name: "hawkeye", Drishti: true},
		{Name: "mockingjay", Drishti: true},
		{Name: "ship++", Drishti: true},
		{Name: "sdbp", Drishti: true},
		{Name: "dip", Drishti: true},
	} {
		cfg := ScaledConfig(2, 8)
		cfg.Instructions = 40_000
		cfg.Warmup = 8_000
		cfg.Policy = spec
		model := workload.ScalePhased(workload.PhasedMcf(5_000), 8, cfg.SetIndexBits())
		readers := make([]trace.Reader, 2)
		for c := range readers {
			g, err := workload.NewPhasedGenerator(model, uint64(c)+1)
			if err != nil {
				t.Fatal(err)
			}
			readers[c] = g
		}
		sys, err := New(cfg, readers)
		if err != nil {
			t.Fatalf("%s: %v", spec.DisplayName(), err)
		}
		if _, err := sys.RunContext(context.Background()); err != nil {
			t.Fatalf("%s: %v", spec.DisplayName(), err)
		}
	}
}
