package sim

import (
	"testing"

	"drishti/internal/fabric"
	"drishti/internal/policies"
	"drishti/internal/trace"
	"drishti/internal/workload"
)

func testConfig(cores int) Config {
	cfg := ScaledConfig(cores, 8)
	cfg.Instructions = 30_000
	cfg.Warmup = 6_000
	return cfg
}

func testMix(t *testing.T, cfg Config, name string, cores int) workload.Mix {
	t.Helper()
	for _, m := range workload.AllSPECGAP() {
		if m.Name == name {
			return workload.Homogeneous(m.Scale(8, cfg.SetIndexBits()), cores, 5)
		}
	}
	t.Fatalf("model %s missing", name)
	return workload.Mix{}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig(4).Validate(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		edit func(*Config)
	}{
		{"zero cores", func(c *Config) { c.Cores = 0 }},
		{"zero instructions", func(c *Config) { c.Instructions = 0 }},
		{"zero L1 ways", func(c *Config) { c.L1Ways = 0 }},
		{"negative L1 ways", func(c *Config) { c.L1Ways = -4 }},
		{"zero L2 ways", func(c *Config) { c.L2Ways = 0 }},
		{"negative L2 ways", func(c *Config) { c.L2Ways = -8 }},
		{"L1 smaller than one set", func(c *Config) { c.L1KB, c.L1Ways = 1, 32 }},
		{"L2 smaller than one set", func(c *Config) { c.L2KB, c.L2Ways = 1, 32 }},
		{"PC tracking past 128 cores", func(c *Config) { c.Cores, c.TrackPCSlices = 256, true }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig(4)
			tc.edit(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Fatal("Validate accepted the config")
			}
			// New validates first, so a bad config errors instead of
			// panicking while the caches are built.
			if _, err := New(cfg, make([]trace.Reader, max(cfg.Cores, 0))); err == nil {
				t.Fatal("New accepted the config")
			}
		})
	}
	big := DefaultConfig(256)
	if err := big.Validate(); err != nil {
		t.Fatalf("256 cores without PC tracking: %v", err)
	}
	big.Cores, big.TrackPCSlices = 128, true
	if err := big.Validate(); err != nil {
		t.Fatalf("PC tracking at 128 cores: %v", err)
	}
}

func TestScaledConfigGeometry(t *testing.T) {
	cfg := ScaledConfig(16, 8)
	if cfg.SliceKB != 256 || cfg.L2KB != 64 || cfg.L1KB != 6 {
		t.Fatalf("scaled sizes %d/%d/%d", cfg.SliceKB, cfg.L2KB, cfg.L1KB)
	}
	if cfg.SetIndexBits() != 8 {
		t.Fatalf("set bits %d", cfg.SetIndexBits())
	}
	full := ScaledConfig(16, 1)
	if full.SliceKB != 2048 || full.SetIndexBits() != 11 {
		t.Fatal("scale 1 must be the Table 4 machine")
	}
}

func TestSliceDistributionUniform(t *testing.T) {
	cfg := testConfig(16)
	readers := make([]trace.Reader, 16)
	g, err := workload.NewGenerator(workload.AllSPECGAP()[0].Scale(8, cfg.SetIndexBits()), 1)
	if err != nil {
		t.Fatal(err)
	}
	readers[0] = g
	sys, err := New(cfg, readers)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 16)
	for b := uint64(0); b < 160000; b++ {
		counts[sys.sliceFor(b<<8|b%7)]++
	}
	for s, c := range counts {
		if c < 7000 || c > 13000 {
			t.Fatalf("slice %d got %d of 160000 blocks (non-uniform hash)", s, c)
		}
	}
}

func TestRunProducesSaneResult(t *testing.T) {
	cfg := testConfig(2)
	mix := testMix(t, cfg, "602.gcc_s-734B", 2)
	res, err := RunMix(cfg, mix)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range res.PerCore {
		if c.IPC <= 0 || c.IPC > 6 {
			t.Fatalf("core %d IPC %v", i, c.IPC)
		}
		if c.Instructions < cfg.Instructions {
			t.Fatalf("core %d retired %d < target", i, c.Instructions)
		}
	}
	if res.LLC.DemandAccesses == 0 || res.DRAM.Reads == 0 {
		t.Fatal("no memory traffic")
	}
	if res.MPKI <= 0 || res.APKI < res.MPKI {
		t.Fatalf("MPKI=%v APKI=%v", res.MPKI, res.APKI)
	}
	if res.Energy.Total <= 0 {
		t.Fatal("no energy accounted")
	}
}

func TestDeterminism(t *testing.T) {
	cfg := testConfig(4)
	cfg.Policy = policies.Spec{Name: "mockingjay", Drishti: true}
	mix := testMix(t, cfg, "605.mcf_s-1554B", 4)
	a, err := RunMix(cfg, mix)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunMix(cfg, mix)
	if err != nil {
		t.Fatal(err)
	}
	if a.IPCSum() != b.IPCSum() || a.LLC != b.LLC || a.DRAM != b.DRAM {
		t.Fatal("identical configs diverged (design decision D5)")
	}
}

func TestPoliciesDifferentiate(t *testing.T) {
	// On a thrash-prone workload, Hawkeye must beat LRU on LLC misses.
	model := workload.Model{
		Name: "loop-scan", Suite: workload.SuiteSPEC, MeanGap: 3,
		Streams: []workload.StreamSpec{
			{Kind: workload.Loop, Weight: 5, FootprintKB: 384, PCs: 8},
			{Kind: workload.Sequential, Weight: 5, FootprintKB: 8192, PCs: 2},
		},
	}
	run := func(pol string) *Result {
		cfg := ScaledConfig(1, 8)
		cfg.Instructions = 250_000
		cfg.Warmup = 80_000
		cfg.L1Prefetcher = "none"
		cfg.L2Prefetcher = "none"
		cfg.Policy = policies.Spec{Name: pol}
		res, err := RunMix(cfg, workload.Homogeneous(model, 1, 5))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	lru := run("lru")
	hawk := run("hawkeye")
	if hawk.MPKI >= lru.MPKI*0.95 {
		t.Fatalf("hawkeye MPKI %.1f vs lru %.1f: no scan resistance", hawk.MPKI, lru.MPKI)
	}
}

func TestWritebacksReachDRAM(t *testing.T) {
	cfg := testConfig(2)
	mix := testMix(t, cfg, "619.lbm_s-2676B", 2) // write-heavy streaming
	res, err := RunMix(cfg, mix)
	if err != nil {
		t.Fatal(err)
	}
	if res.DRAM.Writes == 0 || res.WPKI <= 0 {
		t.Fatal("write-heavy workload produced no DRAM writes")
	}
}

func TestIdleCoresAllowed(t *testing.T) {
	cfg := testConfig(4)
	readers := make([]trace.Reader, 4)
	g, err := workload.NewGenerator(workload.AllSPECGAP()[0].Scale(8, cfg.SetIndexBits()), 3)
	if err != nil {
		t.Fatal(err)
	}
	readers[2] = g // only core 2 active
	sys, err := New(cfg, readers)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.PerCore[2].IPC <= 0 {
		t.Fatal("active core has no IPC")
	}
	for _, i := range []int{0, 1, 3} {
		if res.PerCore[i].Instructions != 0 {
			t.Fatalf("idle core %d retired instructions", i)
		}
	}
}

func TestNoActiveCoresRejected(t *testing.T) {
	cfg := testConfig(2)
	sys, err := New(cfg, make([]trace.Reader, 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(); err == nil {
		t.Fatal("all-idle run accepted")
	}
}

func TestRunAloneMatchesMix(t *testing.T) {
	cfg := testConfig(2)
	mix := testMix(t, cfg, "641.leela_s-800B", 2)
	alone, err := RunAlone(cfg, mix)
	if err != nil {
		t.Fatal(err)
	}
	if len(alone) != 2 {
		t.Fatalf("alone IPCs %v", alone)
	}
	together, err := RunMix(cfg, mix)
	if err != nil {
		t.Fatal(err)
	}
	for i := range alone {
		if alone[i] <= 0 {
			t.Fatalf("alone IPC %v", alone[i])
		}
		// Contention can only hurt (allowing small simulation noise).
		if together.PerCore[i].IPC > alone[i]*1.15 {
			t.Fatalf("core %d faster together (%v) than alone (%v)",
				i, together.PerCore[i].IPC, alone[i])
		}
	}
}

func TestRunWithMetrics(t *testing.T) {
	cfg := testConfig(2)
	mix := testMix(t, cfg, "641.leela_s-800B", 2)
	alone, err := RunAlone(cfg, mix)
	if err != nil {
		t.Fatal(err)
	}
	out, err := RunWithMetrics(cfg, mix, alone)
	if err != nil {
		t.Fatal(err)
	}
	if out.Metrics.WS <= 0 || out.Metrics.WS > 2.05 {
		t.Fatalf("2-core WS %v", out.Metrics.WS)
	}
}

func TestPCSliceTracking(t *testing.T) {
	cfg := testConfig(8)
	cfg.TrackPCSlices = true
	mix := testMix(t, cfg, "pr-twitter", 8)
	res, err := RunMix(cfg, mix)
	if err != nil {
		t.Fatal(err)
	}
	if res.PCSlices == nil || res.PCSlices.PCs == 0 {
		t.Fatal("no PC→slice statistics collected")
	}
	if res.PCSlices.FractionOne <= 0 || res.PCSlices.FractionOne > 1 {
		t.Fatalf("fraction %v", res.PCSlices.FractionOne)
	}
	// pr-like workloads have many narrow PCs → a large one-slice share.
	if res.PCSlices.FractionOne < 0.2 {
		t.Fatalf("pr-like one-slice fraction %.2f, expected substantial", res.PCSlices.FractionOne)
	}
}

func TestDrishtiUsesNocstar(t *testing.T) {
	cfg := testConfig(4)
	cfg.Policy = policies.Spec{Name: "mockingjay", Drishti: true}
	mix := testMix(t, cfg, "605.mcf_s-1554B", 4)
	res, err := RunMix(cfg, mix)
	if err != nil {
		t.Fatal(err)
	}
	if res.StarMsgs == 0 {
		t.Fatal("D-Mockingjay produced no NOCSTAR traffic")
	}
	base := cfg
	base.Policy = policies.Spec{Name: "mockingjay"}
	bres, err := RunMix(base, mix)
	if err != nil {
		t.Fatal(err)
	}
	if bres.StarMsgs != 0 {
		t.Fatal("baseline Mockingjay used NOCSTAR")
	}
}

func TestCentralizedBankConcentration(t *testing.T) {
	cfg := testConfig(8)
	cfg.Policy = policies.Spec{
		Name:             "mockingjay",
		Placement:        policies.PlacementPtr(fabric.Centralized),
		FixedPredLatency: 1,
	}
	mix := testMix(t, cfg, "602.gcc_s-734B", 8)
	res, err := RunMix(cfg, mix)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.BankAPKI) != 1 {
		t.Fatalf("centralized banks %d", len(res.BankAPKI))
	}
	pcg := cfg
	pcg.Policy = policies.Spec{Name: "mockingjay", Placement: policies.PlacementPtr(fabric.PerCoreGlobal), FixedPredLatency: 1}
	res2, err := RunMix(pcg, mix)
	if err != nil {
		t.Fatal(err)
	}
	var maxPer float64
	for _, v := range res2.BankAPKI {
		if v > maxPer {
			maxPer = v
		}
	}
	// Fig 10's shape: the central bank sees far more traffic than any
	// per-core bank.
	if res.BankAPKI[0] < 4*maxPer {
		t.Fatalf("central=%.1f per-core-max=%.1f: concentration missing", res.BankAPKI[0], maxPer)
	}
}

func TestPrefetchersRun(t *testing.T) {
	cfg := testConfig(2)
	cfg.L2Prefetcher = "spp"
	mix := testMix(t, cfg, "603.bwaves_s-3699B", 2)
	res, err := RunMix(cfg, mix)
	if err != nil {
		t.Fatal(err)
	}
	if res.PrefetchesIssued+res.PrefetchesDropped == 0 {
		t.Fatal("streaming workload generated no prefetch candidates")
	}
}

func TestMixCoreCountMismatch(t *testing.T) {
	cfg := testConfig(4)
	mix := testMix(t, cfg, "602.gcc_s-734B", 2)
	if _, err := RunMix(cfg, mix); err == nil {
		t.Fatal("core-count mismatch accepted")
	}
}

func TestFixedPredLatencySlowdown(t *testing.T) {
	// Fig 11's mechanism: a large predictor latency on the fill path must
	// cost performance relative to a small one.
	mix := testMix(t, testConfig(4), "605.mcf_s-1554B", 4)
	run := func(lat uint32) float64 {
		cfg := testConfig(4)
		cfg.Instructions = 60_000
		cfg.Policy = policies.Spec{Name: "mockingjay", Drishti: true, FixedPredLatency: lat}
		res, err := RunMix(cfg, mix)
		if err != nil {
			t.Fatal(err)
		}
		return res.IPCSum()
	}
	fast, slow := run(1), run(300)
	if slow >= fast {
		t.Fatalf("300-cycle predictor latency not slower: fast=%v slow=%v", fast, slow)
	}
}

func TestDSCStatsSurfaceInResult(t *testing.T) {
	cfg := testConfig(2)
	cfg.Instructions = 60_000
	cfg.Policy = policies.Spec{Name: "mockingjay", Drishti: true}
	mix := testMix(t, cfg, "605.mcf_s-1554B", 2)
	res, err := RunMix(cfg, mix)
	if err != nil {
		t.Fatal(err)
	}
	if res.DSCSelections == 0 {
		t.Fatal("dynamic selector activity not surfaced")
	}
	base := cfg
	base.Policy = policies.Spec{Name: "mockingjay"}
	bres, err := RunMix(base, mix)
	if err != nil {
		t.Fatal(err)
	}
	if bres.DSCSelections != 0 {
		t.Fatal("static selection reported DSC activity")
	}
}
