package sim

import (
	"context"
	"testing"

	"drishti/internal/policies"
	"drishti/internal/workload"
)

func smokeConfig(cores int) Config {
	cfg := DefaultConfig(cores)
	cfg.Instructions = 20_000
	cfg.Warmup = 4_000
	return cfg
}

func TestSmokeSingleCoreLRU(t *testing.T) {
	cfg := smokeConfig(1)
	mix := workload.Homogeneous(workload.SPECModels()[0], 1, 7)
	res, err := RunMixContext(context.Background(), cfg, mix)
	if err != nil {
		t.Fatalf("RunMix: %v", err)
	}
	if res.PerCore[0].IPC <= 0 || res.PerCore[0].IPC > 6 {
		t.Fatalf("implausible IPC %v", res.PerCore[0].IPC)
	}
	if res.LLC.DemandAccesses == 0 {
		t.Fatalf("no LLC traffic")
	}
	t.Logf("IPC=%.3f MPKI=%.2f WPKI=%.2f APKI=%.2f dramReads=%d",
		res.PerCore[0].IPC, res.MPKI, res.WPKI, res.APKI, res.DRAM.Reads)
}

func TestSmokeFourCorePolicies(t *testing.T) {
	mix := workload.Homogeneous(workload.SPECModels()[0], 4, 11) // mcf-like
	for _, spec := range []policies.Spec{
		{Name: "lru"},
		{Name: "hawkeye"},
		{Name: "mockingjay"},
		{Name: "hawkeye", Drishti: true},
		{Name: "mockingjay", Drishti: true},
	} {
		spec := spec
		t.Run(spec.DisplayName(), func(t *testing.T) {
			cfg := smokeConfig(4)
			cfg.Policy = spec
			res, err := RunMixContext(context.Background(), cfg, mix)
			if err != nil {
				t.Fatalf("RunMix: %v", err)
			}
			t.Logf("%-14s IPCsum=%.3f MPKI=%.2f WPKI=%.2f", spec.DisplayName(), res.IPCSum(), res.MPKI, res.WPKI)
		})
	}
}

func TestSmokeDeterminism(t *testing.T) {
	cfg := smokeConfig(2)
	cfg.Policy = policies.Spec{Name: "mockingjay", Drishti: true}
	mix := workload.Homogeneous(workload.GAPModels()[0], 2, 3)
	a, err := RunMixContext(context.Background(), cfg, mix)
	if err != nil {
		t.Fatalf("run a: %v", err)
	}
	b, err := RunMixContext(context.Background(), cfg, mix)
	if err != nil {
		t.Fatalf("run b: %v", err)
	}
	if a.IPCSum() != b.IPCSum() || a.MPKI != b.MPKI || a.LLC.TotalAccesses != b.LLC.TotalAccesses {
		t.Fatalf("non-deterministic results: %+v vs %+v", a.LLC, b.LLC)
	}
}
