package sim

import (
	"context"
	"testing"

	"drishti/internal/workload"
)

// TestInclusiveLLCHurtsWithBigPrivateCaches reproduces the classic
// inclusion-victim effect: when the private caches hold a meaningful share
// of the working set, LLC evictions back-invalidate live lines and cost
// performance relative to the non-inclusive baseline.
func TestInclusiveLLCHurts(t *testing.T) {
	model := workload.Model{
		Name: "inclusion-victims", Suite: workload.SuiteSPEC, MeanGap: 3,
		Streams: []workload.StreamSpec{
			// Hot L2-resident loop (the inclusion victims). Small enough
			// that it stabilizes in the 64 KB L2 despite scan churn.
			{Kind: workload.Loop, Weight: 7, FootprintKB: 24, PCs: 8},
			// LLC-thrashing scan that forces LLC evictions.
			{Kind: workload.Sequential, Weight: 3, FootprintKB: 8192, PCs: 2},
		},
	}
	run := func(inclusive bool) *Result {
		cfg := ScaledConfig(1, 8)
		cfg.Instructions = 120_000
		cfg.Warmup = 20_000
		cfg.InclusiveLLC = inclusive
		res, err := RunMixContext(context.Background(), cfg, workload.Homogeneous(model, 1, 3))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	nonInc, inc := run(false), run(true)
	// Back-invalidated loop lines must be refetched from DRAM: the
	// inclusive run does strictly more DRAM reads and LLC demand misses.
	if inc.DRAM.Reads <= nonInc.DRAM.Reads {
		t.Fatalf("no inclusion-victim refetches: inclusive reads %d ≤ non-inclusive %d",
			inc.DRAM.Reads, nonInc.DRAM.Reads)
	}
	if inc.MPKI <= nonInc.MPKI {
		t.Fatalf("inclusive MPKI %.2f ≤ non-inclusive %.2f", inc.MPKI, nonInc.MPKI)
	}
}

// TestInclusiveLLCInvariant checks the inclusion property itself: after an
// inclusive run, no private cache holds a block absent from the LLC.
func TestInclusiveLLCInvariant(t *testing.T) {
	cfg := ScaledConfig(2, 8)
	cfg.Instructions = 25_000
	cfg.Warmup = 5_000
	cfg.InclusiveLLC = true
	mix := workload.Homogeneous(
		workload.AllSPECGAP()[0].Scale(8, cfg.SetIndexBits()), 2, 11)
	readers, err := Readers(mix)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(cfg, readers)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	inLLC := func(block uint64) bool {
		_, ok := sys.llc[sys.sliceFor(block)].Probe(block)
		return ok
	}
	violations := 0
	for c := 0; c < cfg.Cores; c++ {
		for _, pc := range []interface{ Probe(uint64) (int, bool) }{sys.l1[c], sys.l2[c]} {
			_ = pc
		}
	}
	// Walk the private caches via Probe over their known contents: the
	// cache API exposes Probe only, so sample the LLC's recent traffic
	// instead — probe the L1/L2 for blocks NOT in the LLC by scanning a
	// window of generated addresses.
	g, err := workload.NewGenerator(mix.Models[0].Scale(1, cfg.SetIndexBits()), mix.Seeds[0])
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	for i := 0; i < 30_000; i++ {
		r, _ := g.Next()
		blk := r.Addr >> 6
		if seen[blk] {
			continue
		}
		seen[blk] = true
		for c := 0; c < cfg.Cores; c++ {
			if _, ok := sys.l1[c].Probe(blk); ok && !inLLC(blk) {
				violations++
			}
			if _, ok := sys.l2[c].Probe(blk); ok && !inLLC(blk) {
				violations++
			}
		}
	}
	if violations > 0 {
		t.Fatalf("%d inclusion violations (private line without an LLC copy)", violations)
	}
}
