package mockingjay

import (
	"testing"

	"drishti/internal/fabric"
	"drishti/internal/mem"
	"drishti/internal/noc"
	"drishti/internal/repl"
	"drishti/internal/sampler"
	"drishti/internal/stats"
)

func build(t testing.TB, placement fabric.Placement, sets, ways, slices int) (*Shared, []*Slice) {
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
		sel := sampler.NewStatic(sets, sets, stats.NewRand(uint64(i)))
		ps = append(ps, NewSlice(sh, i, sel))
	}
	return sh, ps
}

func load(pc, block uint64) repl.Access {
	return repl.Access{PC: pc, Block: block, Type: mem.Load}
}

func TestMaxRDDerived(t *testing.T) {
	fab := fabric.MustNew(fabric.Config{Placement: fabric.Local, Slices: 1, Cores: 1})
	sh := NewShared(repl.Geometry{Slices: 1, Cores: 1, SetsPerSlice: 4, Ways: 16}, fab)
	if sh.maxRD != 8*16*8 {
		t.Fatalf("maxRD %d, want 8×ways×granularity = %d", sh.maxRD, 8*16*8)
	}
}

func TestLearnsReuseDistance(t *testing.T) {
	sh, ps := build(t, fabric.Local, 4, 4, 1)
	p := ps[0]
	pc := uint64(0x100)
	// Block 4 (set 0) reused every 3 sampled accesses.
	for i := 0; i < 60; i++ {
		p.OnAccess(0, load(pc, 4), i > 0)
		p.OnAccess(0, load(0x200, uint64(1000+i)*4), false)
		p.OnAccess(0, load(0x300, uint64(5000+i)*4), false)
	}
	sig := sh.index(pc, 0, false)
	rd, trained, _ := sh.predict(0, repl.Access{}, sig)
	if !trained {
		t.Fatal("PC untrained after 60 reuses")
	}
	if rd < 1 || rd > 12 {
		t.Fatalf("learned rd %d, want ≈3", rd)
	}
}

func TestLearnsInfForNoReuse(t *testing.T) {
	sh, ps := build(t, fabric.Local, 4, 2, 1)
	p := ps[0]
	scanPC := uint64(0xBAD)
	for i := uint64(0); i < 200; i++ {
		p.OnAccess(0, load(scanPC, i*4), false)
	}
	sig := sh.index(scanPC, 0, false)
	rd, trained, _ := sh.predict(0, repl.Access{}, sig)
	if !trained || rd != InfRD {
		t.Fatalf("scan PC rd=%d trained=%v, want INF", rd, trained)
	}
}

func TestVictimEvictsFurthestReuse(t *testing.T) {
	_, ps := build(t, fabric.Local, 2, 3, 1)
	p := ps[0]
	p.etr[p.idx(0, 0)], p.etrValid[p.idx(0, 0)] = 2, true
	p.etr[p.idx(0, 1)], p.etrValid[p.idx(0, 1)] = 90, true
	p.etr[p.idx(0, 2)], p.etrValid[p.idx(0, 2)] = -5, true
	if v := p.Victim(0, repl.Access{Type: mem.Writeback}); v != 1 {
		t.Fatalf("victim %d, want the ETR-90 way", v)
	}
}

func TestVictimTiePrefersOverdue(t *testing.T) {
	_, ps := build(t, fabric.Local, 2, 2, 1)
	p := ps[0]
	p.etr[p.idx(0, 0)], p.etrValid[p.idx(0, 0)] = 50, true
	p.etr[p.idx(0, 1)], p.etrValid[p.idx(0, 1)] = -50, true
	if v := p.Victim(0, repl.Access{Type: mem.Writeback}); v != 1 {
		t.Fatalf("victim %d, want the overdue way", v)
	}
}

func TestScanBypass(t *testing.T) {
	sh, ps := build(t, fabric.Local, 4, 2, 1)
	p := ps[0]
	scanPC := uint64(0xBAD)
	for i := uint64(0); i < 300; i++ {
		p.OnAccess(0, load(scanPC, i*4), false)
	}
	// Resident lines expect near reuse.
	p.etr[p.idx(0, 0)], p.etrValid[p.idx(0, 0)] = 1, true
	p.etr[p.idx(0, 1)], p.etrValid[p.idx(0, 1)] = 2, true
	sig := sh.index(scanPC, 0, false)
	if rd, _, _ := sh.predict(0, repl.Access{}, sig); rd != InfRD {
		t.Skip("scan not yet INF-trained; bypass untestable")
	}
	if v := p.Victim(0, load(scanPC, 9999)); v != repl.Bypass {
		t.Fatalf("INF-predicted demand fill into a hot set returned way %d, want bypass", v)
	}
	if p.Bypasses == 0 {
		t.Fatal("bypass not counted")
	}
}

func TestAgingDecrementsETR(t *testing.T) {
	sh, ps := build(t, fabric.Local, 2, 2, 1)
	_ = sh
	p := ps[0]
	p.etr[p.idx(0, 0)], p.etrValid[p.idx(0, 0)] = 10, true
	for i := 0; i < Granularity; i++ {
		p.ageSet(0)
	}
	if p.etr[p.idx(0, 0)] != 9 {
		t.Fatalf("ETR after one granularity period: %d, want 9", p.etr[p.idx(0, 0)])
	}
}

func TestWritebackFillsGetLowestPriority(t *testing.T) {
	_, ps := build(t, fabric.Local, 2, 2, 1)
	p := ps[0]
	p.OnFill(0, 0, repl.Access{Block: 4, Type: mem.Writeback})
	p.etr[p.idx(0, 1)], p.etrValid[p.idx(0, 1)] = 3, true
	if v := p.Victim(0, repl.Access{Type: mem.Writeback}); v != 0 {
		t.Fatalf("victim %d, want the writeback-filled way", v)
	}
}

func TestUntrainedDefaultMidPriority(t *testing.T) {
	_, ps := build(t, fabric.Local, 2, 2, 1)
	p := ps[0]
	p.OnFill(0, 0, load(0xFEED, 4))
	d := p.etr[p.idx(0, 0)]
	max := int16(p.shared.maxRD / Granularity)
	if d <= 0 || d >= max {
		t.Fatalf("untrained fill ETR %d, want strictly between 0 and %d", d, max)
	}
}

func TestGlobalViewSharedAcrossSlices(t *testing.T) {
	sh, ps := build(t, fabric.PerCoreGlobal, 4, 2, 2)
	scanPC := uint64(0xF00)
	for i := uint64(0); i < 300; i++ {
		ps[0].OnAccess(0, load(scanPC, i*4), false) // core 0 traffic at slice 0
	}
	// Slice 1 predicting for core 0 must see the training.
	sig := sh.index(scanPC, 0, false)
	rd, trained, _ := sh.predict(1, repl.Access{Core: 0}, sig)
	if !trained || rd != InfRD {
		t.Fatalf("global view not shared: rd=%d trained=%v", rd, trained)
	}
}

func TestPeekMatchesPredict(t *testing.T) {
	sh, ps := build(t, fabric.Local, 4, 2, 1)
	pc := uint64(0x42)
	for i := uint64(0); i < 200; i++ {
		ps[0].OnAccess(0, load(pc, i*4), false)
	}
	rdPeek, trainedPeek := sh.Peek(0, pc, 0)
	sig := sh.index(pc, 0, false)
	rdPred, trainedPred, _ := sh.predict(0, repl.Access{}, sig)
	if rdPeek != rdPred || trainedPeek != trainedPred {
		t.Fatal("Peek disagrees with predict")
	}
}

func TestBudgetDirection(t *testing.T) {
	base := repl.Geometry{SetsPerSlice: 2048, Ways: 16, Slices: 32, Cores: 32, SampledSets: 32}
	drishti := base
	drishti.SampledSets = 16
	sum := func(m map[string]int) int {
		t := 0
		for _, v := range m {
			t += v
		}
		return t
	}
	if sum(Budget(drishti, true)) >= sum(Budget(base, false)) {
		t.Fatal("Drishti must reduce Mockingjay's per-core storage (Table 3)")
	}
}
