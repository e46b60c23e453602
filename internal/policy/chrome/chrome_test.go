package chrome

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
	cfg := repl.Geometry{SetsPerSlice: sets, Ways: ways, Slices: 1, Cores: 1}
	sh := NewShared(cfg, fab, stats.NewRand(3))
	sel := sampler.NewStatic(sets, sets, stats.NewRand(1))
	return sh, NewSlice(sh, 0, sel)
}

func load(pc, block uint64) repl.Access {
	return repl.Access{PC: pc, Block: block, Type: mem.Load}
}

func TestRewardShiftsQ(t *testing.T) {
	sh, _ := build(t, 4, 2)
	st := sh.state(0x100, 0, 0)
	q0 := sh.q[0][st][actInsertMRU]
	sh.learn(0, repl.Access{}, st, actInsertMRU, rewardHit)
	if sh.q[0][st][actInsertMRU] <= q0 {
		t.Fatal("positive reward did not raise Q")
	}
	sh.learn(0, repl.Access{}, st, actInsertLRU, rewardDead)
	if sh.q[0][st][actInsertLRU] >= 0 {
		t.Fatal("negative reward did not lower Q")
	}
}

func TestAgentLearnsToProtectReusedPC(t *testing.T) {
	_, p := build(t, 4, 4)
	pc := uint64(0x42)
	// Repeated fill-then-hit experience: the hit reward reinforces
	// whatever insertion the agent chose.
	for i := 0; i < 500; i++ {
		way := p.Victim(0, load(pc, 4))
		if way == repl.Bypass {
			continue
		}
		p.OnFill(0, way, load(pc, 4))
		p.OnHit(0, way, load(pc, 4))
	}
	// The dominant action for this state must now be a caching one with
	// positive value.
	st := p.shared.state(pc, 0, p.pressure(0))
	q := p.shared.q[0][st]
	best, bestV := 0, q[0]
	for a := 1; a < numActions; a++ {
		if q[a] > bestV {
			best, bestV = a, q[a]
		}
	}
	if best == actBypass || bestV <= 0 {
		t.Fatalf("agent did not learn to cache a reused PC: best=%d q=%v", best, q)
	}
}

func TestDeadLinesPunished(t *testing.T) {
	_, p := build(t, 4, 2)
	pc := uint64(0xDead)
	for i := 0; i < 300; i++ {
		way := p.Victim(0, load(pc, uint64(i)))
		if way == repl.Bypass {
			continue
		}
		p.OnFill(0, way, load(pc, uint64(i)))
		p.OnEvict(0, way, uint64(i), 0) // evicted un-reused
	}
	st := p.shared.state(pc, 0, p.pressure(0))
	q := p.shared.q[0][st]
	if q[actInsertMRU] > 0 {
		t.Fatalf("MRU insertion still positive for dead PC: %v", q)
	}
}

func TestVictimRange(t *testing.T) {
	_, p := build(t, 8, 4)
	for i := 0; i < 500; i++ {
		v := p.Victim(i%8, load(uint64(i), uint64(i*64)))
		if v != repl.Bypass && (v < 0 || v >= 4) {
			t.Fatalf("victim %d", v)
		}
	}
}

func TestWritebackPath(t *testing.T) {
	_, p := build(t, 4, 2)
	p.OnFill(0, 0, repl.Access{Block: 4, Type: mem.Writeback})
	if p.rrpv[p.idx(0, 0)] != 3 {
		t.Fatal("writeback fill should be distant")
	}
	// Writeback victim selection must not consult the agent.
	if v := p.Victim(0, repl.Access{Type: mem.Writeback}); v == repl.Bypass {
		t.Fatal("writeback bypassed")
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	_, p1 := build(t, 4, 2)
	_, p2 := build(t, 4, 2)
	for i := 0; i < 200; i++ {
		a := load(uint64(i%7), uint64(i*64))
		v1 := p1.Victim(0, a)
		v2 := p2.Victim(0, a)
		if v1 != v2 {
			t.Fatalf("ε-greedy diverged at step %d", i)
		}
		if v1 != repl.Bypass {
			p1.OnFill(0, v1, a)
			p2.OnFill(0, v2, a)
		}
	}
}
