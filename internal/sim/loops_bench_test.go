package sim

import (
	"context"
	"testing"

	"drishti/internal/policies"
	"drishti/internal/workload"
)

// cell64c is perfbench's cell-64c shape: one 64-core D-Mockingjay cell at
// scale 1/32, 8000 + 2000 instructions, on one seeded heterogeneous mix.
func cell64c() (Config, workload.Mix) {
	cfg := ScaledConfig(64, 32)
	cfg.Instructions, cfg.Warmup = 8_000, 2_000
	cfg.Policy = policies.Spec{Name: "mockingjay", Drishti: true}
	models := workload.ScaleAll(workload.AllSPECGAP(), 32, cfg.SetIndexBits())
	return cfg, workload.HeterogeneousMixes(models, cfg.Cores, 1, 1)[0]
}

// BenchmarkCell64cSerial and BenchmarkCell64cBatch are the pair that
// records why there are two simulation loops: the same lone cell through
// the serial loop (RunMixContext) and as a one-lane lockstep batch
// (RunBatchContext, bit-identical result). EXPERIMENTS.md has the numbers.
func BenchmarkCell64cSerial(b *testing.B) {
	cfg, mix := cell64c()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := RunMixContext(context.Background(), cfg, mix)
		if err != nil {
			b.Fatal(err)
		}
		batchSink = []*Result{res}
	}
}

func BenchmarkCell64cBatch(b *testing.B) {
	cfg, mix := cell64c()
	variants := []Variant{{Policy: cfg.Policy}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := RunBatchContext(context.Background(), cfg, variants, mix)
		if err != nil {
			b.Fatal(err)
		}
		batchSink = res
	}
}
