package sdbp

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

func TestDeadPCTraining(t *testing.T) {
	sh, p := build(t, 4, 2)
	pc := uint64(0xDEAD)
	for i := 0; i < 20; i++ {
		p.OnFill(0, 0, load(pc, uint64(i)*4))
		p.OnEvict(0, 0, 0, 0)
	}
	if dead, _ := sh.predict(0, repl.Access{}, pc, 0); !dead {
		t.Fatal("killer PC not predicted dead")
	}
	// Dead-on-arrival fills take the LRU stamp.
	p.OnFill(0, 1, load(pc, 999))
	if p.stamps[p.idx(0, 1)] != 0 {
		t.Fatal("dead fill not placed at LRU")
	}
}

func TestLivePCTraining(t *testing.T) {
	sh, p := build(t, 4, 2)
	pc := uint64(0x11FE)
	for i := 0; i < 20; i++ {
		p.OnFill(0, 0, load(pc, 4))
		p.OnHit(0, 0, load(pc, 4))
	}
	if dead, _ := sh.predict(0, repl.Access{}, pc, 0); dead {
		t.Fatal("reused PC predicted dead")
	}
}

func TestVictimPrefersDead(t *testing.T) {
	_, p := build(t, 2, 2)
	p.stamps[p.idx(0, 0)] = 5
	p.stamps[p.idx(0, 1)] = 99
	p.lines[p.idx(0, 1)].dead = true
	if v := p.Victim(0, repl.Access{}); v != 1 {
		t.Fatalf("victim %d, want the dead line despite its recency", v)
	}
}

func TestVictimFallsBackToLRU(t *testing.T) {
	_, p := build(t, 2, 2)
	p.stamps[p.idx(0, 0)] = 5
	p.stamps[p.idx(0, 1)] = 3
	if v := p.Victim(0, repl.Access{}); v != 1 {
		t.Fatalf("victim %d, want LRU", v)
	}
}

func TestSkewedTablesDisagreeGracefully(t *testing.T) {
	sh, _ := build(t, 4, 2)
	// Indices for different PCs must not be systematically identical.
	a := sh.indices(0x400, 0)
	b := sh.indices(0x404, 0)
	if a == b {
		t.Fatal("skewed hash collision for adjacent PCs across all tables")
	}
}
