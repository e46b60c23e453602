package sim

import (
	"context"
	"testing"

	"drishti/internal/policies"
	"drishti/internal/workload"
)

// TestFullSizeMachine runs the paper's Table 4 geometry (2 MB slices, 512 KB
// L2, 48 KB L1D, 2048-set slices) unscaled — a short smoke that the
// full-size path works and that the paper's structure parameters (sampled
// sets 32/16, DSC intervals of 32K/128K slice loads) wire up.
func TestFullSizeMachine(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size machine smoke is not -short")
	}
	cfg := DefaultConfig(4)
	cfg.Instructions = 40_000
	cfg.Warmup = 8_000
	cfg.Policy = policies.Spec{Name: "mockingjay", Drishti: true}
	if cfg.SetIndexBits() != 11 {
		t.Fatalf("full-size set bits %d, want 11", cfg.SetIndexBits())
	}
	// Full-size workload models, unscaled.
	mix := workload.Homogeneous(workload.AllSPECGAP()[0], 4, 1)
	res, err := RunMixContext(context.Background(), cfg, mix)
	if err != nil {
		t.Fatal(err)
	}
	if res.IPCSum() <= 0 {
		t.Fatal("no progress on the full-size machine")
	}
	// The paper's per-slice sampled-set count for D-Mockingjay is 16.
	readers, err := Readers(mix)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(cfg, readers)
	if err != nil {
		t.Fatal(err)
	}
	if n := sys.Built().Selectors[0].N(); n != 16 {
		t.Fatalf("full-size D-Mockingjay sampled sets %d, want 16", n)
	}
	base := cfg
	base.Policy = policies.Spec{Name: "mockingjay"}
	readers, err = Readers(mix)
	if err != nil {
		t.Fatal(err)
	}
	bsys, err := New(base, readers)
	if err != nil {
		t.Fatal(err)
	}
	if n := bsys.Built().Selectors[0].N(); n != 32 {
		t.Fatalf("full-size Mockingjay sampled sets %d, want 32", n)
	}
}
