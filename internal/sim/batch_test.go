package sim

import (
	"context"
	"encoding/json"
	"testing"

	"drishti/internal/policies"
	"drishti/internal/workload"
)

// batchTestConfig builds a small machine for equivalence tests.
func batchTestConfig(t *testing.T, cores int) (Config, workload.Mix) {
	t.Helper()
	cfg := ScaledConfig(cores, 8)
	cfg.Instructions = 20_000
	cfg.Warmup = 5_000
	m, ok := workload.ByName("605.mcf_s-1554B")
	if !ok {
		t.Fatal("mcf model missing")
	}
	mix := workload.Homogeneous(m.Scale(8, cfg.SetIndexBits()), cores, 5)
	return cfg, mix
}

func resultJSON(t *testing.T, r *Result) string {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

var batchTestSpecs = []policies.Spec{
	{Name: "lru"},
	{Name: "dip"},
	{Name: "srrip"},
	{Name: "hawkeye", Drishti: true},
	{Name: "mockingjay", Drishti: true},
}

// assertBatchMatchesSerial runs the spec set both batched and serially and
// requires bit-identical results per lane.
func assertBatchMatchesSerial(t *testing.T, cfg Config, mix workload.Mix) {
	t.Helper()
	variants := make([]Variant, len(batchTestSpecs))
	for i, spec := range batchTestSpecs {
		variants[i] = Variant{Policy: spec}
	}
	batched, err := RunBatchContext(context.Background(), cfg, variants, mix)
	if err != nil {
		t.Fatalf("RunBatch: %v", err)
	}
	for i, spec := range batchTestSpecs {
		c := cfg
		c.Policy = spec
		serial, err := RunMixContext(context.Background(), c, mix)
		if err != nil {
			t.Fatalf("serial %s: %v", spec.DisplayName(), err)
		}
		if got, want := resultJSON(t, batched[i]), resultJSON(t, serial); got != want {
			t.Errorf("lane %d (%s): batched result differs from serial\nbatched: %.200s\nserial:  %.200s",
				i, spec.DisplayName(), got, want)
		}
	}
}

// TestBatchMatchesSerialTier1 covers the raw-stream sharing tier (default
// prefetchers on → private hierarchies simulated per lane).
func TestBatchMatchesSerialTier1(t *testing.T) {
	cfg, mix := batchTestConfig(t, 4)
	if tier2Eligible(cfg) {
		t.Fatal("default config unexpectedly tier-2 eligible")
	}
	assertBatchMatchesSerial(t, cfg, mix)
}

// TestBatchMatchesSerialTier2 covers the expanded-stream tier (prefetchers
// off → the private hierarchy is simulated once and shared).
func TestBatchMatchesSerialTier2(t *testing.T) {
	cfg, mix := batchTestConfig(t, 4)
	cfg.L1Prefetcher, cfg.L2Prefetcher = "none", "none"
	if !tier2Eligible(cfg) {
		t.Fatal("prefetcher-free config should be tier-2 eligible")
	}
	assertBatchMatchesSerial(t, cfg, mix)
}

// TestBatchMatchesSerialTier2MSHRs keeps MSHR modeling on the lane side.
func TestBatchMatchesSerialTier2MSHRs(t *testing.T) {
	cfg, mix := batchTestConfig(t, 4)
	cfg.L1Prefetcher, cfg.L2Prefetcher = "none", "none"
	cfg.ModelMSHRs = true
	assertBatchMatchesSerial(t, cfg, mix)
}

// TestBatchInclusiveLLCFallsBackToTier1 checks an inclusive LLC (whose
// back-invalidations couple the private caches to lane state) still
// batches correctly via tier 1.
func TestBatchInclusiveLLCFallsBackToTier1(t *testing.T) {
	cfg, mix := batchTestConfig(t, 2)
	cfg.L1Prefetcher, cfg.L2Prefetcher = "none", "none"
	cfg.InclusiveLLC = true
	if tier2Eligible(cfg) {
		t.Fatal("inclusive LLC must not be tier-2 eligible")
	}
	assertBatchMatchesSerial(t, cfg, mix)
}

// TestBatchAloneLanes checks alone-run lanes reproduce RunAloneN exactly
// while sharing the stream with a mix lane.
func TestBatchAloneLanes(t *testing.T) {
	cfg, mix := batchTestConfig(t, 4)
	cfg.L1Prefetcher, cfg.L2Prefetcher = "none", "none"
	base := cfg
	base.Policy = policies.Spec{Name: "lru"}

	variants := []Variant{{Policy: base.Policy}}
	for c := 0; c < cfg.Cores; c++ {
		variants = append(variants, Variant{Policy: base.Policy, Alone: true, AloneCore: c})
	}
	batched, err := RunBatchContext(context.Background(), base, variants, mix)
	if err != nil {
		t.Fatalf("RunBatch: %v", err)
	}

	alone, err := RunAloneNContext(context.Background(), base, mix, 1)
	if err != nil {
		t.Fatalf("RunAloneN: %v", err)
	}
	for c := 0; c < cfg.Cores; c++ {
		if got := batched[1+c].PerCore[c].IPC; got != alone[c] {
			t.Errorf("alone lane core %d IPC = %v, serial %v", c, got, alone[c])
		}
	}
	serial, err := RunMixContext(context.Background(), base, mix)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := resultJSON(t, batched[0]), resultJSON(t, serial); got != want {
		t.Errorf("mix lane result differs from serial when batched with alone lanes")
	}
}

// TestBatchShrunkWindowMatchesSerial forces the memory-budget path — a
// budget too small for the default window shrinks it to one chunk — and
// checks every lane still equals its serial run, on both sharing tiers.
func TestBatchShrunkWindowMatchesSerial(t *testing.T) {
	old := batchMemBudget
	batchMemBudget = 1
	defer func() { batchMemBudget = old }()
	for _, tier2 := range []bool{false, true} {
		cfg, mix := batchTestConfig(t, 2)
		if tier2 {
			cfg.L1Prefetcher, cfg.L2Prefetcher = "none", "none"
		}
		if tier2Eligible(cfg) != tier2 {
			t.Fatalf("tier2Eligible = %v, want %v", !tier2, tier2)
		}
		if got := lockstepWindow([]bool{true, true}, tier2); got != streamChunkLen {
			t.Fatalf("tier2=%v: window under a 1-byte budget = %d, want one chunk (%d)", tier2, got, streamChunkLen)
		}
		assertBatchMatchesSerial(t, cfg, mix)
	}
}

// TestBatchCancellation checks a cancelled context aborts the batch.
func TestBatchCancellation(t *testing.T) {
	cfg, mix := batchTestConfig(t, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunBatchContext(ctx, cfg, []Variant{{Policy: policies.Spec{Name: "lru"}}}, mix)
	if err == nil {
		t.Fatal("expected cancellation error")
	}
}

// TestBatchWindowUnshrunkAtMaxCores: the largest machine the entry points
// accept (scenario.MaxCores, 256 cores) keeps the default window on the
// costlier sharing tier, so only a lowered budget ever shrinks it.
func TestBatchWindowUnshrunkAtMaxCores(t *testing.T) {
	used := make([]bool, 256)
	for c := range used {
		used[c] = true
	}
	if got := lockstepWindow(used, true); got != batchWindow {
		t.Fatalf("256-core tier-2 window = %d, want the default %d", got, batchWindow)
	}
}
