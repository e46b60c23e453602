package mockingjay

import (
	"math/rand/v2"
	"slices"
	"testing"

	"drishti/internal/fabric"
	"drishti/internal/mem"
	"drishti/internal/repl"
	"drishti/internal/sampler"
	"drishti/internal/stats"
)

// refVictim is the scan Victim replaced, kept verbatim: the first invalid
// way returns at once; otherwise the largest |ETR| wins, a tie goes to the
// more negative (overdue) line, then to the lower way, and an INF-predicted
// demand or prefetch fill bypasses when its ETR exceeds every resident one.
func refVictim(p *Slice, set int, a repl.Access) int {
	base := set * p.shared.g.Ways
	ways := p.shared.g.Ways
	maxW, maxAbs := 0, int16(-1)
	for w := 0; w < ways; w++ {
		i := base + w
		if !p.etrValid[i] {
			return w
		}
		abs := p.etr[i]
		if abs < 0 {
			abs = -abs
		}
		if abs > maxAbs || (abs == maxAbs && p.etr[i] < p.etr[base+maxW]) {
			maxW, maxAbs = w, abs
		}
	}
	if a.Type.IsDemand() || a.Type == mem.Prefetch {
		sig := p.shared.index(a.PC, a.Core, a.Type == mem.Prefetch)
		rd, trained, lat := p.shared.predict(p.sliceID, a, sig)
		p.penalty = lat
		p.pending.block, p.pending.rd, p.pending.trained, p.pending.valid = a.Block, rd, trained, true
		if trained && rd == InfRD {
			p.InfPredicts++
			incoming := p.scaled(rd)
			if incoming > maxAbs {
				p.Bypasses++
				return repl.Bypass
			}
		}
	}
	return maxW
}

// TestVictimMatchesReference draws random rows of ETRs (small ranges, so
// |ETR| ties and ±ETR pairs are common), invalid ways, and accesses whose
// predictor entry is untrained, trained finite or trained INF, and checks
// Victim against the reference: the way or bypass, the counters, and the
// pending prediction handed to OnFill.
func TestVictimMatchesReference(t *testing.T) {
	for _, ways := range []int{1, 2, 4, 11, 16} {
		sh, ps := build(t, fabric.Local, 4, ways, 1)
		p := ps[0]
		inf := p.scaled(InfRD)
		rng := rand.New(rand.NewPCG(uint64(ways), 5))
		types := []mem.AccessType{mem.Load, mem.RFO, mem.Prefetch, mem.Writeback}
		var bypasses, invalids, ties int
		for i := 0; i < 20_000; i++ {
			set := rng.IntN(4)
			span := int16(1 + rng.IntN(int(inf)+1))
			for w := 0; w < ways; w++ {
				j := p.idx(set, w)
				p.etr[j] = int16(rng.IntN(2*int(span)+1)) - span
				p.etrValid[j] = rng.IntN(24) != 0
			}
			a := repl.Access{PC: uint64(rng.IntN(8)), Block: uint64(i), Type: types[rng.IntN(len(types))]}
			sig := sh.index(a.PC, a.Core, a.Type == mem.Prefetch)
			switch rng.IntN(3) {
			case 0:
				sh.bank[0][sig] = rdpEntry{}
			case 1:
				sh.bank[0][sig] = rdpEntry{rd: int16(rng.IntN(sh.maxRD)), trained: true}
			default:
				sh.bank[0][sig] = rdpEntry{rd: InfRD, trained: true}
			}
			p.pending.valid = false
			inf0, byp0 := p.InfPredicts, p.Bypasses
			want := refVictim(p, set, a)
			wantPending, wantInf, wantByp := p.pending, p.InfPredicts-inf0, p.Bypasses-byp0
			p.pending.valid = false
			inf0, byp0 = p.InfPredicts, p.Bypasses
			got := p.Victim(set, a)
			if got != want || p.pending != wantPending || p.InfPredicts-inf0 != wantInf || p.Bypasses-byp0 != wantByp {
				t.Fatalf("ways=%d row %v valid %v access %+v: victim %d (pending %+v, +%d INF, +%d bypass), reference %d (%+v, +%d, +%d)",
					ways, p.etr[p.idx(set, 0):p.idx(set, ways)], p.etrValid[p.idx(set, 0):p.idx(set, ways)], a,
					got, p.pending, p.InfPredicts-inf0, p.Bypasses-byp0, want, wantPending, wantInf, wantByp)
			}
			switch {
			case want == repl.Bypass:
				bypasses++
			case !p.etrValid[p.idx(set, want)]:
				invalids++
			}
			if want >= 0 {
				for w := 0; w < ways; w++ {
					if e := p.etr[p.idx(set, w)]; w != want && e != 0 && e == -p.etr[p.idx(set, want)] {
						ties++ // an equal |ETR| of the other sign lost
					}
				}
			}
		}
		if bypasses == 0 || invalids == 0 || (ways > 1 && ties == 0) {
			t.Fatalf("ways=%d: %d bypasses, %d invalid-way picks, %d ±ETR ties: the rows missed a case", ways, bypasses, invalids, ties)
		}
	}
}

// refSampleSet is the map-based sampled set this package used before its
// history moved onto an oatable, kept as the reference.
type refSampleSet struct {
	entries map[uint64]*sampEntry
	time    uint32
}

// refSampler replays the sampled-set half of the old OnAccess: selector
// feed, flush of unsampled sets on a new generation, reuse training on a
// tracked block, and eviction of the oldest entry (trained as INF) when a
// full set tracks a new one.
type refSampler struct {
	sh      *Shared
	sel     sampler.SetSelector
	selGen  uint64
	samples map[int]*refSampleSet

	evictions int
}

func (r *refSampler) onAccess(set int, a repl.Access, hit bool) {
	if a.Type == mem.Writeback {
		return
	}
	if a.Type.IsDemand() {
		r.sel.OnAccess(set, hit)
	}
	if g := r.sel.Generation(); g != r.selGen {
		r.selGen = g
		for s := range r.samples {
			if _, ok := r.sel.IsSampled(s); !ok {
				delete(r.samples, s)
			}
		}
	}
	if _, ok := r.sel.IsSampled(set); !ok {
		return
	}
	ss := r.samples[set]
	if ss == nil {
		ss = &refSampleSet{entries: map[uint64]*sampEntry{}}
		r.samples[set] = ss
	}
	sig := r.sh.index(a.PC, a.Core, a.Type == mem.Prefetch)
	if e, found := ss.entries[a.Block]; found {
		r.sh.train(0, repl.Access{Core: int(e.core), Cycle: a.Cycle}, e.sig, int(ss.time-e.ts))
		e.sig, e.core, e.ts = sig, uint16(a.Core), ss.time
	} else {
		if len(ss.entries) >= 8*r.sh.g.Ways {
			var (
				oldBlock uint64
				oldEnt   *sampEntry
			)
			for blk, e := range ss.entries {
				if oldEnt == nil || ss.time-e.ts > ss.time-oldEnt.ts {
					oldBlock, oldEnt = blk, e
				}
			}
			delete(ss.entries, oldBlock)
			r.evictions++
			r.sh.train(0, repl.Access{Core: int(oldEnt.core), Cycle: a.Cycle}, oldEnt.sig, r.sh.maxRD)
		}
		ss.entries[a.Block] = &sampEntry{sig: sig, core: uint16(a.Core), ts: ss.time}
	}
	ss.time++
}

// TestSampledSetMatchesReference runs a Slice and the map-based reference,
// each with its own predictor and an identically seeded dynamic selector
// that reselects every 64 loads, through one random trace. The block space
// is several times a sampled set's capacity, so most new blocks evict. After
// every access the predictors must be equal and every set must hold the
// same number of tracked lines at the same set time.
func TestSampledSetMatchesReference(t *testing.T) {
	const sets, ways = 16, 2
	mk := func() (*Shared, sampler.SetSelector) {
		fab := fabric.MustNew(fabric.Config{Placement: fabric.Local, Slices: 1, Cores: 4})
		sh := NewShared(repl.Geometry{SetsPerSlice: sets, Ways: ways, Slices: 1, Cores: 4, SampledSets: 4}, fab)
		dyn := sampler.MustDynamic(sampler.DynamicConfig{
			Sets: sets, N: 4, CounterBits: 8, MonitorLen: 64, ActiveLen: 64, UniformThreshold: 1,
		}, stats.NewRand(7))
		return sh, dyn
	}
	sh, sel := mk()
	p := NewSlice(sh, 0, sel)
	refSh, refSel := mk()
	ref := &refSampler{sh: refSh, sel: refSel, selGen: refSel.Generation(), samples: map[int]*refSampleSet{}}
	rng := rand.New(rand.NewPCG(2, 4))
	types := []mem.AccessType{mem.Load, mem.Load, mem.RFO, mem.Prefetch, mem.Writeback}
	var flushes int
	for i := 0; i < 100_000; i++ {
		// Hot sets 0-3 get most accesses, so the selector's picks shift.
		set := rng.IntN(sets)
		if rng.IntN(2) == 0 {
			set = rng.IntN(4)
		}
		a := repl.Access{
			PC:    uint64(rng.IntN(32)),
			Block: uint64(rng.IntN(6*8*ways))*sets + uint64(set),
			Core:  rng.IntN(4),
			Type:  types[rng.IntN(len(types))],
		}
		hit := rng.IntN(3) == 0
		gen := ref.selGen
		p.OnAccess(set, a, hit)
		ref.onAccess(set, a, hit)
		if ref.selGen != gen {
			flushes++
		}
		for b := range sh.bank {
			if !slices.Equal(sh.bank[b], refSh.bank[b]) {
				t.Fatalf("op %d: predictor bank %d differs from the reference", i, b)
			}
		}
		for s := 0; s < sets; s++ {
			got, want := p.samples[s], ref.samples[s]
			if (got == nil) != (want == nil) ||
				(got != nil && (got.entries.Len() != len(want.entries) || got.time != want.time)) {
				t.Fatalf("op %d set %d: sampled set %+v, reference %+v", i, s, got, want)
			}
		}
	}
	if flushes < 100 || ref.evictions < 1_000 {
		t.Fatalf("%d reselections, %d evictions: the trace missed a path", flushes, ref.evictions)
	}
}
