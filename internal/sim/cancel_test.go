package sim

import (
	"context"
	"errors"
	"testing"

	"drishti/internal/workload"
)

func cancelFixture() (Config, workload.Mix) {
	cfg := ScaledConfig(2, 8)
	cfg.Instructions = 50_000
	cfg.Warmup = 10_000
	models := workload.ScaleAll(workload.AllSPECGAP(), 8, cfg.SetIndexBits())
	return cfg, workload.Homogeneous(models[0], 2, 1)
}

// A pre-cancelled context must abort the run with a context error, not
// produce a result.
func TestRunMixContextCancelled(t *testing.T) {
	cfg, mix := cancelFixture()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunMixContext(ctx, cfg, mix)
	if err == nil {
		t.Fatalf("cancelled run returned a result: %+v", res)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
}

// A background context must be bit-identical to the ctx-less path.
func TestRunMixContextBackgroundIdentical(t *testing.T) {
	cfg, mix := cancelFixture()
	plain, err := RunMixContext(context.Background(), cfg, mix)
	if err != nil {
		t.Fatal(err)
	}
	viaCtx, err := RunMixContext(context.Background(), cfg, mix)
	if err != nil {
		t.Fatal(err)
	}
	if plain.MPKI != viaCtx.MPKI || plain.IPCSum() != viaCtx.IPCSum() ||
		plain.LLC != viaCtx.LLC || plain.TotalInstructions != viaCtx.TotalInstructions {
		t.Fatalf("context path diverged: %+v vs %+v", plain, viaCtx)
	}
}

// Cancelling the alone-run pool must surface the context error too.
func TestRunAloneNContextCancelled(t *testing.T) {
	cfg, mix := cancelFixture()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunAloneNContext(ctx, cfg, mix, 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}
