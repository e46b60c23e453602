package glider

import (
	"testing"

	"drishti/internal/fabric"
	"drishti/internal/mem"
	"drishti/internal/repl"
	"drishti/internal/sampler"
	"drishti/internal/stats"
)

func build(t *testing.T, sets, ways int) (*Shared, *Slice) {
	t.Helper()
	fab := fabric.MustNew(fabric.Config{Placement: fabric.Local, Slices: 1, Cores: 1})
	cfg := repl.Geometry{SetsPerSlice: sets, Ways: ways, Slices: 1, Cores: 1, SampledSets: sets}
	sh := NewShared(cfg, fab)
	sel := sampler.NewStatic(sets, sets, stats.NewRand(1))
	return sh, NewSlice(sh, 0, sel)
}

func load(pc, block uint64) repl.Access {
	return repl.Access{PC: pc, Block: block, Type: mem.Load}
}

func TestPCHRShifts(t *testing.T) {
	sh, _ := build(t, 4, 2)
	sh.PushPC(0, 0x100)
	snap1 := sh.historySnapshot(0)
	sh.PushPC(0, 0x200)
	snap2 := sh.historySnapshot(0)
	if snap1 == snap2 {
		t.Fatal("history did not shift")
	}
	// The old head must now appear at position 1.
	f := feature(0x100)
	if uint8(snap2>>featureBits)&(1<<featureBits-1) != f {
		t.Fatal("old PC not shifted to slot 1")
	}
}

func TestISVMLearnsScan(t *testing.T) {
	sh, p := build(t, 4, 2)
	scanPC := uint64(0xBAD)
	for i := uint64(0); i < 400; i++ {
		p.OnAccess(0, load(scanPC, i*4), false)
	}
	sig := sh.index(scanPC, 0)
	if friendly, _ := sh.predict(0, repl.Access{PC: scanPC}, sig); friendly {
		t.Fatal("scan PC predicted friendly by the ISVM")
	}
}

func TestISVMLearnsLoop(t *testing.T) {
	sh, p := build(t, 4, 4)
	loopPC := uint64(0x600D)
	for round := 0; round < 100; round++ {
		for b := uint64(0); b < 2; b++ {
			p.OnAccess(0, load(loopPC, b*4), true)
		}
	}
	sig := sh.index(loopPC, 0)
	if friendly, _ := sh.predict(0, repl.Access{PC: loopPC}, sig); !friendly {
		t.Fatal("loop PC predicted averse")
	}
}

func TestMarginStopsTraining(t *testing.T) {
	sh, _ := build(t, 4, 2)
	sig := uint32(7)
	snap := uint64(0)
	// Train far past the margin; weights must saturate, not overflow.
	for i := 0; i < 1000; i++ {
		sh.train(0, repl.Access{}, sig, snap, true)
	}
	if got := sh.sum(0, sig, snap); got > int(weightMax)*HistoryLen {
		t.Fatalf("weights beyond saturation: %d", got)
	}
}

func TestFillPlacement(t *testing.T) {
	_, p := build(t, 4, 2)
	p.OnFill(0, 0, load(0x1, 4))
	// Untrained ISVM sums to 0 → not friendly → distant insert.
	if p.rrpv[p.idx(0, 0)] != rrpvMax {
		t.Fatalf("untrained fill rrpv %d", p.rrpv[p.idx(0, 0)])
	}
}

func TestVictimPrefersAverse(t *testing.T) {
	_, p := build(t, 2, 2)
	p.rrpv[p.idx(0, 0)] = 0
	p.rrpv[p.idx(0, 1)] = rrpvMax
	if v := p.Victim(0, repl.Access{}); v != 1 {
		t.Fatalf("victim %d", v)
	}
	// No RRPV-7 line: evict the max.
	p.rrpv[p.idx(1, 0)] = 2
	p.rrpv[p.idx(1, 1)] = 5
	if v := p.Victim(1, repl.Access{}); v != 1 {
		t.Fatalf("victim %d, want max-RRPV way", v)
	}
}

func TestEvictDetrainsFriendly(t *testing.T) {
	sh, p := build(t, 4, 4)
	loopPC := uint64(0x600D)
	for round := 0; round < 100; round++ {
		for b := uint64(0); b < 2; b++ {
			p.OnAccess(0, load(loopPC, b*4), true)
		}
	}
	sig := sh.index(loopPC, 0)
	if friendly, _ := sh.predict(0, repl.Access{PC: loopPC}, sig); !friendly {
		t.Skip("loop PC not trained friendly; detrain untestable")
	}
	// Fill as friendly, then evict repeatedly without reuse: the ISVM sum
	// must decrease.
	before := sh.sum(0, sig, sh.historySnapshot(0))
	for i := 0; i < 50; i++ {
		p.OnFill(1, 0, load(loopPC, 100))
		p.rrpv[p.idx(1, 0)] = 0 // still "friendly-looking" at eviction
		p.OnEvict(1, 0, 100, 0)
	}
	after := sh.sum(0, sig, sh.historySnapshot(0))
	if after >= before {
		t.Fatalf("eviction detraining did not lower the sum: %d → %d", before, after)
	}
}

func TestWritebackFillDistant(t *testing.T) {
	_, p := build(t, 2, 2)
	p.OnFill(0, 0, repl.Access{Block: 4, Type: mem.Writeback})
	if p.rrpv[p.idx(0, 0)] != rrpvMax {
		t.Fatal("writeback fill should be distant")
	}
	// Writeback hits must not touch predictor state.
	p.OnHit(0, 0, repl.Access{Block: 4, Type: mem.Writeback})
}

func TestHitPromotes(t *testing.T) {
	_, p := build(t, 2, 2)
	p.rrpv[p.idx(0, 1)] = 5
	p.OnHit(0, 1, load(0x9, 4))
	if p.rrpv[p.idx(0, 1)] != 0 {
		t.Fatal("hit did not promote")
	}
}

func TestBudgetSaturatingCounters(t *testing.T) {
	if Budget(repl.Geometry{SetsPerSlice: 2048, Ways: 16, Slices: 32, Cores: 32, SampledSets: 64}, true)["saturating-counters"] != 2048 {
		t.Fatal("budget counters wrong")
	}
}
