package leeway

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

func TestPredictorOnlyOnMisses(t *testing.T) {
	sh, p := build(t, 4, 2)
	p.OnFill(0, 0, load(0x100, 4))
	lookups := sh.fab.Stats.Lookups
	for i := 0; i < 10; i++ {
		p.OnHit(0, 0, load(0x100, 4))
	}
	if sh.fab.Stats.Lookups != lookups {
		t.Fatal("Leeway consulted the predictor on hits (its design forbids this)")
	}
	p.OnFill(0, 1, load(0x100, 8))
	if sh.fab.Stats.Lookups != lookups+1 {
		t.Fatal("fill did not consult the predictor")
	}
}

func TestLeewayExpiryMakesLineDead(t *testing.T) {
	_, p := build(t, 2, 2)
	p.OnFill(0, 0, load(0x1, 4))
	p.lines[p.idx(0, 0)].leeway = 3
	for i := 0; i < 5; i++ {
		p.OnAccess(0, load(0x2, uint64(100+i)*4), false)
	}
	if !p.lines[p.idx(0, 0)].dead() {
		t.Fatal("line past its leeway not considered dead")
	}
	// Dead line preferred over a fresher-but-live one.
	p.OnFill(0, 1, load(0x1, 8))
	p.lines[p.idx(0, 1)].leeway = 200
	if v := p.Victim(0, repl.Access{}); v != 0 {
		t.Fatalf("victim %d, want the expired line", v)
	}
}

func TestHitResetsIdle(t *testing.T) {
	_, p := build(t, 2, 2)
	p.OnFill(0, 0, load(0x1, 4))
	p.lines[p.idx(0, 0)].leeway = 2
	p.OnAccess(0, load(0x2, 400), false)
	p.OnAccess(0, load(0x2, 464), false)
	p.OnHit(0, 0, load(0x1, 4))
	if p.lines[p.idx(0, 0)].idleAcc != 0 {
		t.Fatal("hit did not reset the idle counter")
	}
}

func TestAsymmetricTraining(t *testing.T) {
	sh, _ := build(t, 4, 2)
	sig := sh.index(0x42, 0)
	// Growth is immediate.
	sh.train(0, repl.Access{}, sig, 10)
	sh.train(0, repl.Access{}, sig, 40)
	if lw, _ := sh.predict(0, repl.Access{}, sig); lw != 40 {
		t.Fatalf("leeway after growth %d, want 40", lw)
	}
	// Shrinkage needs repeated evidence.
	sh.train(0, repl.Access{}, sig, 5)
	if lw, _ := sh.predict(0, repl.Access{}, sig); lw != 40 {
		t.Fatal("single low observation shrank the leeway")
	}
	for i := 0; i < 4; i++ {
		sh.train(0, repl.Access{}, sig, 5)
	}
	if lw, _ := sh.predict(0, repl.Access{}, sig); lw >= 40 {
		t.Fatalf("persistent low observations did not shrink the leeway: %d", lw)
	}
}

func TestUntrainedDefault(t *testing.T) {
	sh, _ := build(t, 4, 2)
	lw, _ := sh.predict(0, repl.Access{}, 123)
	if lw == 0 || int(lw) > MaxLeeway {
		t.Fatalf("untrained default %d", lw)
	}
}

func TestWritebackZeroLeeway(t *testing.T) {
	_, p := build(t, 2, 2)
	p.OnFill(0, 0, repl.Access{Block: 4, Type: mem.Writeback})
	p.OnAccess(0, load(0x2, 400), false)
	if !p.lines[p.idx(0, 0)].dead() {
		t.Fatal("writeback fill should have no leeway")
	}
}
