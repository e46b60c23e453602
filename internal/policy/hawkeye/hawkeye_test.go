package hawkeye

import (
	"testing"

	"drishti/internal/fabric"
	"drishti/internal/mem"
	"drishti/internal/noc"
	"drishti/internal/repl"
	"drishti/internal/sampler"
	"drishti/internal/stats"
)

func build(t testing.TB, placement fabric.Placement, sets, ways, slices int) (*Shared, []*Slice, *fabric.Fabric) {
	t.Helper()
	fab, err := fabric.New(fabric.Config{
		Placement: placement,
		Slices:    slices,
		Cores:     slices,
		Mesh:      noc.NewMesh(slices, 4, 2),
		Star:      noc.NewStar(slices, 3),
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := repl.Geometry{SetsPerSlice: sets, Ways: ways, Slices: slices, Cores: slices, SampledSets: sets}
	sh := NewShared(cfg, fab)
	var ps []*Slice
	for i := 0; i < slices; i++ {
		sel := sampler.NewStatic(sets, sets, stats.NewRand(uint64(i))) // all sets sampled
		ps = append(ps, NewSlice(sh, i, sel))
	}
	return sh, ps, fab
}

func access(pc, block uint64, typ mem.AccessType) repl.Access {
	return repl.Access{PC: pc, Block: block, Type: typ}
}

func TestLearnsScanIsAverse(t *testing.T) {
	_, ps, _ := build(t, fabric.Local, 4, 2, 1)
	p := ps[0]
	scanPC := uint64(0xBAD)
	// A long scan through set 0: blocks never reuse.
	for i := uint64(0); i < 200; i++ {
		p.OnAccess(0, access(scanPC, i*4, mem.Load), false)
	}
	// After enough history evictions the PC must be predicted averse.
	sig := p.shared.index(scanPC, 0, false)
	if friendly, _ := p.shared.predict(0, repl.Access{}, sig); friendly {
		t.Fatal("scan PC still predicted cache-friendly")
	}
	// And fills from it go to RRPV 7 (immediately evictable).
	p.OnFill(0, 0, access(scanPC, 999, mem.Load))
	if p.rrpv[0] != rrpvMax {
		t.Fatalf("averse fill rrpv %d", p.rrpv[0])
	}
}

func TestLearnsLoopIsFriendly(t *testing.T) {
	_, ps, _ := build(t, fabric.Local, 4, 4, 1)
	p := ps[0]
	loopPC := uint64(0x600D)
	// Two blocks ping-ponging in set 0: short reuse, low occupancy.
	for round := 0; round < 50; round++ {
		for b := uint64(0); b < 2; b++ {
			p.OnAccess(0, access(loopPC, b*4, mem.Load), true)
		}
	}
	sig := p.shared.index(loopPC, 0, false)
	if friendly, _ := p.shared.predict(0, repl.Access{}, sig); !friendly {
		t.Fatal("looping PC predicted averse")
	}
	p.OnFill(0, 1, access(loopPC, 123, mem.Load))
	if p.rrpv[1] != 0 {
		t.Fatalf("friendly fill rrpv %d", p.rrpv[1])
	}
}

func TestVictimPrefersAverse(t *testing.T) {
	_, ps, _ := build(t, fabric.Local, 2, 2, 1)
	p := ps[0]
	p.rrpv[p.idx(0, 0)] = 0
	p.rrpv[p.idx(0, 1)] = rrpvMax
	if v := p.Victim(0, repl.Access{}); v != 1 {
		t.Fatalf("victim %d, want the RRPV-7 way", v)
	}
}

func TestLocalIsMyopicGlobalIsNot(t *testing.T) {
	// Train a PC in slice 0 only; with Local placement slice 1 knows
	// nothing, with PerCoreGlobal it shares the view.
	for _, tc := range []struct {
		placement fabric.Placement
		wantSame  bool
	}{
		{fabric.Local, false},
		{fabric.PerCoreGlobal, true},
	} {
		sh, ps, _ := build(t, tc.placement, 4, 2, 2)
		scanPC := uint64(0xF00)
		for i := uint64(0); i < 300; i++ {
			ps[0].OnAccess(0, access(scanPC, i*4, mem.Load), false)
		}
		sig := sh.index(scanPC, 0, false)
		// Prediction as seen from slice 1, core 0.
		b1, _ := sh.fab.PredictBank(1, 0, 0)
		trained := sh.bank[b1][sig] != friendlyAt
		if trained != tc.wantSame {
			t.Fatalf("%v: slice-1 view trained=%v, want %v", tc.placement, trained, tc.wantSame)
		}
	}
}

func TestGenerationFlushDropsUnsampledSets(t *testing.T) {
	fab := fabric.MustNew(fabric.Config{Placement: fabric.Local, Slices: 1, Cores: 1})
	cfg := repl.Geometry{SetsPerSlice: 16, Ways: 2, Slices: 1, Cores: 1, SampledSets: 4}
	sh := NewShared(cfg, fab)
	dyn := sampler.MustDynamic(sampler.DynamicConfig{
		Sets: 16, N: 4, CounterBits: 8, MonitorLen: 64, ActiveLen: 64, UniformThreshold: 1,
	}, stats.NewRand(1))
	p := NewSlice(sh, 0, dyn)
	// Fill some sampled history on whatever is sampled now.
	set := dyn.SampledSets()[0]
	p.OnAccess(set, access(1, 1, mem.Load), false)
	if p.samples[set] == nil {
		t.Fatal("no sample state allocated")
	}
	// Drive a reselection: all sets miss except the current sample.
	for i := 0; i < 200; i++ {
		dyn.OnAccess(i%16, i%16 == set)
	}
	p.maybeFlush()
	for s, ss := range p.samples {
		if _, ok := dyn.IsSampled(s); ss != nil && !ok {
			t.Fatalf("stale sample state kept for unsampled set %d", s)
		}
	}
}

func TestBudget(t *testing.T) {
	base := repl.Geometry{SetsPerSlice: 2048, Ways: 16, Slices: 32, Cores: 32, SampledSets: 64}
	drishti := base
	drishti.SampledSets = 8
	without := Budget(base, false)
	with := Budget(drishti, true)
	sum := func(m map[string]int) int {
		t := 0
		for _, v := range m {
			t += v
		}
		return t
	}
	// Table 3's direction: Drishti saves storage despite the counters.
	if sum(with) >= sum(without) {
		t.Fatalf("Drishti budget %d ≥ baseline %d", sum(with), sum(without))
	}
	if with["saturating-counters"] != 2048 {
		t.Fatalf("saturating counters %d B, want 2048 (2048 × 1B)", with["saturating-counters"])
	}
	if _, ok := without["saturating-counters"]; ok {
		t.Fatal("baseline should have no saturating counters")
	}
}
