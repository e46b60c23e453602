package sim

import (
	"context"
	"testing"

	"drishti/internal/workload"
)

// TestWarmupExcludedFromStats checks that the measured region excludes
// warmup: a run with warmup must report fewer LLC accesses than the same
// run measuring from cycle zero, and per-core instruction counts must equal
// the configured budget (not budget+warmup).
func TestWarmupExcludedFromStats(t *testing.T) {
	base := ScaledConfig(2, 8)
	base.Instructions = 30_000
	mix := workload.Homogeneous(
		workload.AllSPECGAP()[0].Scale(8, base.SetIndexBits()), 2, 9)

	withWarm := base
	withWarm.Warmup = 30_000
	resWarm, err := RunMixContext(context.Background(), withWarm, mix)
	if err != nil {
		t.Fatal(err)
	}
	noWarm := base
	noWarm.Warmup = 0
	resCold, err := RunMixContext(context.Background(), noWarm, mix)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range resWarm.PerCore {
		if c.Instructions < withWarm.Instructions || c.Instructions > withWarm.Instructions+100 {
			t.Fatalf("core %d measured %d instructions, want ≈%d (warmup excluded)",
				i, c.Instructions, withWarm.Instructions)
		}
	}
	// The warmed run's caches start hot: its measured MPKI must not exceed
	// the cold run's by much (cold includes compulsory misses).
	if resWarm.MPKI > resCold.MPKI*1.5 {
		t.Fatalf("warmed MPKI %.1f ≫ cold MPKI %.1f", resWarm.MPKI, resCold.MPKI)
	}
}

// TestWarmupDeterministicWithPolicyState checks warmup interacts cleanly
// with stateful policies: the reported region must still be deterministic.
func TestWarmupDeterministicWithPolicyState(t *testing.T) {
	cfg := ScaledConfig(2, 8)
	cfg.Instructions = 25_000
	cfg.Warmup = 10_000
	cfg.Policy.Name = "hawkeye"
	mix := workload.Homogeneous(
		workload.AllSPECGAP()[2].Scale(8, cfg.SetIndexBits()), 2, 4)
	a, err := RunMixContext(context.Background(), cfg, mix)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunMixContext(context.Background(), cfg, mix)
	if err != nil {
		t.Fatal(err)
	}
	if a.MPKI != b.MPKI || a.IPCSum() != b.IPCSum() {
		t.Fatal("warmup broke determinism")
	}
}
