// Package hawkeye implements the Hawkeye LLC replacement policy (Jain &
// Lin, ISCA'16): Belady's-OPT emulation over sampled sets (OPTgen), a
// PC-indexed 3-bit reuse predictor, and RRIP-style insertion/aging.
//
// The implementation is slice-aware: predictor tables are banked through a
// fabric.Fabric, so the same code runs as baseline Hawkeye (local per-slice
// predictor), D-Hawkeye (per-core yet global predictor over NOCSTAR), or any
// other placement from Table 2. Sampled sets come from a sampler.SetSelector
// (static random, or Drishti's dynamic sampled cache).
package hawkeye

import (
	"math"

	"drishti/internal/fabric"
	"drishti/internal/mem"
	"drishti/internal/policy/optgen"
	"drishti/internal/repl"
	"drishti/internal/sampler"
)

// Table sizes (Table 3).
const (
	// PredictorEntries is the 3-bit counters per predictor bank: 8K
	// entries, 3 KB.
	PredictorEntries = 8192
	// HistoryFactor sizes OPTgen's window: HistoryFactor×Ways accesses of
	// a sampled set, 8× the cache as in the paper.
	HistoryFactor = 8
)

const (
	counterMax = 7 // 3-bit saturating counters
	friendlyAt = 4 // counter value at/above which a PC is cache-friendly
	rrpvMax    = 7 // 3-bit RRPV
)

// Shared holds state common to every slice: the banked reuse predictor.
type Shared struct {
	g    repl.Geometry
	fab  *fabric.Fabric
	bank [][]uint8 // NumBanks × PredictorEntries, 3-bit counters
}

// NewShared allocates the predictor banks for the given fabric placement.
func NewShared(g repl.Geometry, fab *fabric.Fabric) *Shared {
	s := &Shared{g: g, fab: fab}
	s.bank = make([][]uint8, fab.NumBanks())
	for i := range s.bank {
		b := make([]uint8, PredictorEntries)
		for j := range b {
			b[j] = friendlyAt // start weakly friendly, like the reference code
		}
		s.bank[i] = b
	}
	return s
}

// index hashes (PC, core, prefetch-bit) into a predictor entry. Per-core
// indexing matches Mockingjay-style per-slice-per-core predictors (Fig 1)
// and is what lets the per-core-global placement partition cleanly.
func (s *Shared) index(pc uint64, core int, prefetch bool) uint32 {
	h := pc*0x9e3779b97f4a7c15 ^ uint64(core)*0xbf58476d1ce4e5b9
	if prefetch {
		h ^= 0x94d049bb133111eb
	}
	h ^= h >> 29
	return uint32(h) & (PredictorEntries - 1)
}

// train moves the counter for sig toward friendly (true) or averse (false)
// in every bank the fabric says this event must update.
func (s *Shared) train(slice int, a repl.Access, sig uint32, friendly bool) {
	for _, b := range s.fab.TrainBanks(slice, a.Core, a.Cycle) {
		c := &s.bank[b][sig]
		if friendly {
			if *c < counterMax {
				*c++
			}
		} else if *c > 0 {
			*c--
		}
	}
}

// predict reads the counter for sig from the bank serving (slice, core) and
// returns the friendliness plus the interconnect latency on the fill path.
func (s *Shared) predict(slice int, a repl.Access, sig uint32) (friendly bool, lat uint32) {
	b, lat := s.fab.PredictBank(slice, a.Core, a.Cycle)
	return s.bank[b][sig] >= friendlyAt, lat
}

// Slice is the Hawkeye instance attached to one LLC slice. It implements
// repl.Policy, repl.Observer, and repl.FillLatencier.
type Slice struct {
	shared  *Shared
	sliceID int
	sel     sampler.SetSelector
	selGen  uint64

	rrpv     []uint8  // sets×ways
	lineSig  []uint32 // predictor index that inserted each line
	lineCore []uint16 // core that inserted each line (for detraining)
	lineFrnd []bool   // predicted friendly at insertion

	samples []*optgen.Set // by set; nil for sets without sampled history
	penalty uint32        // interconnect cycles charged to the last fill

	// Stats for the frequency-distribution experiments (Fig 4).
	InsertFriendly uint64
	InsertAverse   uint64
}

// NewSlice builds the per-slice policy instance.
func NewSlice(shared *Shared, sliceID int, sel sampler.SetSelector) *Slice {
	g := shared.g
	p := &Slice{
		shared:   shared,
		sliceID:  sliceID,
		sel:      sel,
		selGen:   sel.Generation(),
		rrpv:     make([]uint8, g.Lines()),
		lineSig:  make([]uint32, g.Lines()),
		lineCore: make([]uint16, g.Lines()),
		lineFrnd: make([]bool, g.Lines()),
		samples:  make([]*optgen.Set, g.SetsPerSlice),
	}
	for i := range p.rrpv {
		p.rrpv[i] = rrpvMax
	}
	return p
}

// Name implements repl.Policy.
func (p *Slice) Name() string { return "hawkeye" }

// FillPenalty implements repl.FillLatencier.
func (p *Slice) FillPenalty() uint32 { return p.penalty }

func (p *Slice) idx(set, way int) int { return set*p.shared.g.Ways + way }

// maybeFlush drops sampled history for sets the dynamic sampled cache no
// longer samples. Sets that stay selected (persistent hot sets) keep their
// history, as the hardware sampled-cache entries would remain valid.
func (p *Slice) maybeFlush() {
	if g := p.sel.Generation(); g != p.selGen {
		p.selGen = g
		for set, ss := range p.samples {
			if _, ok := p.sel.IsSampled(set); ss != nil && !ok {
				p.samples[set] = nil
			}
		}
	}
}

// OnAccess implements repl.Observer: OPTgen training on sampled sets.
func (p *Slice) OnAccess(set int, a repl.Access, hit bool) {
	if a.Type == mem.Writeback {
		return
	}
	if a.Type.IsDemand() {
		p.sel.OnAccess(set, hit)
	}
	p.maybeFlush()
	if _, ok := p.sel.IsSampled(set); !ok {
		return
	}
	ss := p.samples[set]
	if ss == nil {
		ss = optgen.NewSet(HistoryFactor*p.shared.g.Ways, p.shared.g.Ways)
		p.samples[set] = ss
	}
	sig := p.shared.index(a.PC, a.Core, a.Type == mem.Prefetch)
	if e, found := ss.Lookup(a.Block); found {
		trainA := repl.Access{Core: int(e.Core), Cycle: a.Cycle}
		p.shared.train(p.sliceID, trainA, e.Sig, ss.OptHit(e.TS))
		e.Sig, e.Core, e.TS = sig, uint16(a.Core), ss.Time()
	} else {
		ent := optgen.Entry{Sig: sig, Core: uint16(a.Core), TS: ss.Time()}
		if old, evicted := ss.Insert(a.Block, ent); evicted {
			// The line aged out of an 8×-LLC-sized window without reuse,
			// so OPT would not have kept it: detrain its PC.
			trainA := repl.Access{Core: int(old.Core), Cycle: a.Cycle}
			p.shared.train(p.sliceID, trainA, old.Sig, false)
		}
	}
	ss.Advance()
}

// OnHit implements repl.Policy.
func (p *Slice) OnHit(set, way int, a repl.Access) {
	if a.Type == mem.Writeback {
		return
	}
	p.rrpv[p.idx(set, way)] = 0
	p.lineSig[p.idx(set, way)] = p.shared.index(a.PC, a.Core, a.Type == mem.Prefetch)
}

// Victim implements repl.Policy: prefer an averse line (RRPV 7); otherwise
// evict the oldest friendly line. No RRPV exceeds rrpvMax, so both cases
// are the first way holding the row's largest RRPV. The scan packs each
// way's inverted RRPV above its index and keeps the smallest key: one
// branch-free min per way, with the lowest way winning ties.
func (p *Slice) Victim(set int, _ repl.Access) int {
	ways := p.shared.g.Ways
	best := uint32(math.MaxUint32)
	for w, v := range p.rrpv[set*ways : set*ways+ways] {
		best = min(best, uint32(rrpvMax-v)<<16|uint32(w))
	}
	return int(best & 0xffff)
}

// OnEvict implements repl.Policy: evicting a line we predicted friendly
// means the prediction was wrong — detrain the PC that inserted it.
func (p *Slice) OnEvict(set, way int, _, cycle uint64) {
	i := p.idx(set, way)
	if p.lineFrnd[i] && p.rrpv[i] < rrpvMax {
		a := repl.Access{Core: int(p.lineCore[i]), Cycle: cycle}
		p.shared.train(p.sliceID, a, p.lineSig[i], false)
	}
}

// OnFill implements repl.Policy: predict, insert, and age.
func (p *Slice) OnFill(set, way int, a repl.Access) {
	sig := p.shared.index(a.PC, a.Core, a.Type == mem.Prefetch)
	i := p.idx(set, way)
	p.lineSig[i] = sig
	p.lineCore[i] = uint16(a.Core)

	if a.Type == mem.Writeback {
		// Dirty fills get the lowest priority (Section 5.2, Table 5).
		p.rrpv[i] = rrpvMax
		p.lineFrnd[i] = false
		p.penalty = 0
		return
	}

	friendly, lat := p.shared.predict(p.sliceID, a, sig)
	p.penalty = lat
	p.lineFrnd[i] = friendly
	if !friendly {
		p.rrpv[i] = rrpvMax
		p.InsertAverse++
		return
	}
	p.InsertFriendly++
	// Age everyone else so older friendly lines become evictable.
	base := set * p.shared.g.Ways
	for w := 0; w < p.shared.g.Ways; w++ {
		if base+w != i && p.rrpv[base+w] < rrpvMax-1 {
			p.rrpv[base+w]++
		}
	}
	p.rrpv[i] = 0
}

// Budget reports the per-core storage of the policy's structures in bytes,
// following Table 3's hardware entry sizes: a 64-set sampled cache costs
// 12 KB (compressed tags + signatures), the OPTgen occupancy vector 1 KB,
// the 8K-entry 3-bit predictor 3 KB, and the 3-bit RRIP state 12 KB for a
// 2048×16 slice. Drishti's 8-set configuration keeps wider entries, so its
// sampled cache floors at 3 KB.
func Budget(g repl.Geometry, dynamic bool) map[string]int {
	sampledBytes := 12 * 1024 * g.SampledSets / 64
	if dynamic && sampledBytes < 3*1024 {
		sampledBytes = 3 * 1024
	}
	out := map[string]int{
		"sampled-cache":    sampledBytes,
		"occupancy-vector": 1024,
		"predictor":        PredictorEntries * 3 / 8,
		"rrip-counters":    g.Lines() * 3 / 8,
	}
	if dynamic {
		out["saturating-counters"] = g.SetsPerSlice // 2048 × 1 B
	}
	return out
}
