package shippp

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

func TestReusedSignatureInsertsNearMRU(t *testing.T) {
	sh, p := build(t, 4, 2)
	pc := uint64(0x100)
	// Train: fill then hit repeatedly.
	for i := 0; i < 20; i++ {
		p.OnFill(0, 0, load(pc, 4))
		p.OnHit(0, 0, load(pc, 4))
	}
	sig := sh.index(pc, 0, false)
	if ctr, _ := sh.predict(0, repl.Access{}, sig); ctr < shctMax {
		t.Fatalf("reused signature counter %d", ctr)
	}
	p.OnFill(0, 1, load(pc, 8))
	if p.rrpv[p.idx(0, 1)] != 0 {
		t.Fatalf("hot signature inserted at rrpv %d", p.rrpv[p.idx(0, 1)])
	}
}

func TestDeadSignatureInsertsDistant(t *testing.T) {
	sh, p := build(t, 4, 2)
	pc := uint64(0xD0A)
	// Fill and evict without reuse, repeatedly.
	for i := 0; i < 10; i++ {
		p.OnFill(0, 0, load(pc, uint64(i)*4))
		p.OnEvict(0, 0, 0, 0)
	}
	sig := sh.index(pc, 0, false)
	if ctr, _ := sh.predict(0, repl.Access{}, sig); ctr != 0 {
		t.Fatalf("dead signature counter %d", ctr)
	}
	p.OnFill(0, 1, load(pc, 999))
	if p.rrpv[p.idx(0, 1)] != rrpvMax {
		t.Fatalf("dead signature inserted at rrpv %d", p.rrpv[p.idx(0, 1)])
	}
}

func TestOutcomeBitTrainsOnce(t *testing.T) {
	sh, p := build(t, 4, 2)
	pc := uint64(0x200)
	p.OnFill(0, 0, load(pc, 4))
	before := sh.fab.Stats.Trainings
	p.OnHit(0, 0, load(pc, 4))
	p.OnHit(0, 0, load(pc, 4))
	p.OnHit(0, 0, load(pc, 4))
	if sh.fab.Stats.Trainings != before+1 {
		t.Fatalf("re-hits trained %d times", sh.fab.Stats.Trainings-before)
	}
}

func TestWritebackNeutral(t *testing.T) {
	_, p := build(t, 4, 2)
	p.OnFill(0, 0, repl.Access{Block: 4, Type: mem.Writeback})
	if p.rrpv[p.idx(0, 0)] != rrpvMax {
		t.Fatal("writeback fill should be distant")
	}
}

func TestVictimInRange(t *testing.T) {
	_, p := build(t, 4, 4)
	for i := 0; i < 100; i++ {
		if v := p.Victim(i%4, repl.Access{}); v < 0 || v >= 4 {
			t.Fatalf("victim %d", v)
		}
	}
}
