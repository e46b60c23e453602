package perceptron

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

func TestLearnsNoReuseAndBypasses(t *testing.T) {
	_, p := build(t, 4, 2)
	pc := uint64(0xBAD)
	// Fill+evict with no reuse until the weights cross the bypass bar.
	bypassed := false
	for i := 0; i < 200 && !bypassed; i++ {
		blk := uint64(i * 4)
		v := p.Victim(0, load(pc, blk))
		if v == repl.Bypass {
			bypassed = true
			break
		}
		p.OnFill(0, v, load(pc, blk))
		p.OnEvict(0, v, blk, 0)
	}
	if !bypassed {
		t.Fatal("dead stream never learned to bypass")
	}
}

func TestReusedLinesKeepMRUInsertion(t *testing.T) {
	_, p := build(t, 4, 2)
	pc := uint64(0x600D)
	for i := 0; i < 50; i++ {
		v := p.Victim(0, load(pc, 4))
		if v == repl.Bypass {
			t.Fatal("reused PC bypassed")
		}
		p.OnFill(0, v, load(pc, 4))
		p.OnHit(0, v, load(pc, 4))
	}
	v := p.Victim(0, load(pc, 4))
	if v == repl.Bypass {
		t.Fatal("hot PC bypassed after training")
	}
	p.OnFill(0, v, load(pc, 8))
	if p.stamps[p.idx(0, v)] == 0 {
		t.Fatal("hot PC inserted at LRU")
	}
}

func TestWeightsSaturate(t *testing.T) {
	sh, _ := build(t, 4, 2)
	feat := sh.features(0x1, 0x40, 0)
	for i := 0; i < 1000; i++ {
		sh.train(0, repl.Access{}, feat, true)
	}
	if sum := sh.sum(0, feat); sum > numFeatures*int(weightMax) {
		t.Fatalf("weights overflowed: %d", sum)
	}
}

func TestFeaturesDiffer(t *testing.T) {
	sh, _ := build(t, 4, 2)
	a := sh.features(0x400, 0x1000, 0)
	b := sh.features(0x404, 0x1000, 0)
	c := sh.features(0x400, 0x1000, 1)
	if a == b || a == c {
		t.Fatal("feature hashes collide across PC/core changes")
	}
}

func TestOneLookupPerFill(t *testing.T) {
	sh, p := build(t, 4, 2)
	before := sh.fab.Stats.Lookups
	v := p.Victim(0, load(0x1, 4))
	if v != repl.Bypass {
		p.OnFill(0, v, load(0x1, 4))
	}
	if sh.fab.Stats.Lookups != before+1 {
		t.Fatalf("fill path made %d lookups", sh.fab.Stats.Lookups-before)
	}
}
