package sim

import (
	"context"
	"testing"

	"drishti/internal/policies"
	"drishti/internal/workload"
)

// TestEvictionTrainingAtFillCycle runs 16-core D-Hawkeye and D-Mockingjay
// cells and bounds NOCSTAR's stall cycles per message. D-Hawkeye detrains
// its per-core predictor when it evicts a line it predicted friendly, and
// that remote training must cross NOCSTAR at the evicting fill's cycle.
// Booked at cycle 0 instead, every such message waited behind all the
// traffic the run had reserved so far: over a thousand stall cycles per
// message, where D-Mockingjay, which trains nothing on eviction, stalls
// about none.
func TestEvictionTrainingAtFillCycle(t *testing.T) {
	const cores, scale = 16, 8
	models := workload.ScaleAll(workload.AllSPECGAP(), scale, DefaultConfig(cores).SetIndexBits())
	mix := workload.HeterogeneousMixes(models, cores, 1, 3)[0]
	for _, name := range []string{"hawkeye", "mockingjay"} {
		cfg := ScaledConfig(cores, scale)
		cfg.Instructions, cfg.Warmup = 20_000, 5_000
		cfg.Policy = policies.Spec{Name: name, Drishti: true}
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
		star := sys.Star()
		if star.Messages == 0 {
			t.Fatalf("D-%s sent no NOCSTAR messages", name)
		}
		per := float64(star.Stalls) / float64(star.Messages)
		t.Logf("D-%s: %.2f stall cycles per NOCSTAR message", name, per)
		if per > 10 {
			t.Errorf("D-%s: %d stall cycles over %d NOCSTAR messages (%.1f per message), want at most 10",
				name, star.Stalls, star.Messages, per)
		}
	}
}
