package sim

import (
	"context"
	"strings"
	"testing"

	"drishti/internal/trace"
	"drishti/internal/workload"
)

func TestMSHRFileBasics(t *testing.T) {
	m := newMSHRFile(2)
	if w := m.reserve(100, 50); w != 0 {
		t.Fatalf("first reserve waited %d", w)
	}
	if w := m.reserve(100, 50); w != 0 {
		t.Fatalf("second reserve waited %d", w)
	}
	// File full; both complete at 150: the third miss at t=100 waits 50.
	if w := m.reserve(100, 50); w != 50 {
		t.Fatalf("full-file reserve waited %d, want 50", w)
	}
	if m.Stalls != 50 {
		t.Fatalf("stall accounting %d", m.Stalls)
	}
	// Past completions free slots without waiting.
	if w := m.reserve(10_000, 50); w != 0 {
		t.Fatalf("expired slot still busy: waited %d", w)
	}
}

func TestMSHRFileMinimumOneEntry(t *testing.T) {
	m := newMSHRFile(0)
	if w := m.reserve(0, 10); w != 0 {
		t.Fatalf("waited %d", w)
	}
	if w := m.reserve(0, 10); w != 10 {
		t.Fatalf("single-entry file should serialize: waited %d", w)
	}
}

// TestMSHRsThrottleMLP checks the end-to-end effect: with strict Table 4
// MSHR limits, a memory-bound workload cannot overlap as many misses, so it
// runs slower than the ROB-window-only default.
func TestMSHRsThrottleMLP(t *testing.T) {
	mix := workload.Homogeneous(
		workload.AllSPECGAP()[0].Scale(8, ScaledConfig(1, 8).SetIndexBits()), 1, 5)
	run := func(model bool) float64 {
		cfg := ScaledConfig(1, 8)
		cfg.Instructions = 60_000
		cfg.Warmup = 10_000
		cfg.ModelMSHRs = model
		res, err := RunMixContext(context.Background(), cfg, mix)
		if err != nil {
			t.Fatal(err)
		}
		return res.PerCore[0].IPC
	}
	free, limited := run(false), run(true)
	if limited >= free {
		t.Fatalf("MSHR limits did not throttle MLP: free=%v limited=%v", free, limited)
	}
}

// TestMSHRSizesAreTable4 checks that a machine modeling MSHRs builds each
// core's files at Table 4's sizes, 8 (L1D), 16 (L2) and 64 (LLC slice),
// and that Config.Key still spells them out as it did when they were
// settable, so stored results keep their keys.
func TestMSHRSizesAreTable4(t *testing.T) {
	cfg := ScaledConfig(2, 8)
	cfg.ModelMSHRs = true
	if k := cfg.Key(); !strings.Contains(k, "|mshr=true,8,16,64|") {
		t.Fatalf("key %q lacks |mshr=true,8,16,64|", k)
	}
	s, err := New(cfg, make([]trace.Reader, cfg.Cores))
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < cfg.Cores; c++ {
		if got := [3]int{len(s.l1MSHR[c].completions), len(s.l2MSHR[c].completions), len(s.llcMSHR[c].completions)}; got != [3]int{8, 16, 64} {
			t.Fatalf("core %d MSHR sizes %v, want [8 16 64]", c, got)
		}
	}
}
