// Package glider implements an online Glider-lite (Shi et al., MICRO'19):
// Hawkeye's OPTgen labeling drives an Integer Support Vector Machine (ISVM)
// over a per-core PC History Register (PCHR), replacing Hawkeye's simple
// per-PC counter with a context-sensitive predictor.
//
// The published Glider trains an LSTM offline and distills it into the
// ISVM; we train the ISVM online directly, which is the deployable
// configuration the paper's Table 8 evaluates. ISVM weight tables are
// banked through a fabric.Fabric, so D-Glider (per-core-yet-global
// predictor + dynamic sampled cache) is the same code with different
// wiring.
package glider

import (
	"drishti/internal/fabric"
	"drishti/internal/mem"
	"drishti/internal/policy/optgen"
	"drishti/internal/repl"
	"drishti/internal/sampler"
)

// Table sizes.
const (
	// ISVMEntries is the PC-indexed weight vectors per bank: 2048 × 16
	// 6-bit weights, 24 KB.
	ISVMEntries = 2048
	// HistoryLen is the PCHR depth: the last 5 demand-load PCs per core.
	HistoryLen = 5
	// HistoryFactor sizes OPTgen's window: HistoryFactor×Ways accesses of
	// a sampled set, as in Hawkeye.
	HistoryFactor = 8
)

const (
	weightMax   = 31 // ISVM weights saturate at ±31 (6-bit)
	weightMin   = -31
	featureBits = 4 // each PCHR element hashes to a 16-way feature
	rrpvMax     = 7
	// threshold: sum of active weights above this → cache-friendly.
	friendlyThreshold = 0
)

// isvmEntry is one PC's weight vector over hashed history features.
type isvmEntry [1 << featureBits]int8

// Shared holds the banked ISVM tables plus the per-core PCHRs. The PCHR is
// architectural core state (the last HistoryLen load PCs), so it is global
// by construction; what Drishti changes is where the *weights* live.
type Shared struct {
	g    repl.Geometry
	fab  *fabric.Fabric
	bank [][]isvmEntry
	pchr [][]uint8 // cores × HistoryLen hashed features
}

// NewShared allocates ISVM banks and PCHRs.
func NewShared(g repl.Geometry, fab *fabric.Fabric) *Shared {
	s := &Shared{g: g, fab: fab}
	s.bank = make([][]isvmEntry, fab.NumBanks())
	for i := range s.bank {
		s.bank[i] = make([]isvmEntry, ISVMEntries)
	}
	s.pchr = make([][]uint8, g.Cores)
	for i := range s.pchr {
		s.pchr[i] = make([]uint8, HistoryLen)
	}
	return s
}

func (s *Shared) index(pc uint64, core int) uint32 {
	h := pc*0x9e3779b97f4a7c15 ^ uint64(core)*0xff51afd7ed558ccd
	h ^= h >> 30
	return uint32(h) & (ISVMEntries - 1)
}

func feature(pc uint64) uint8 {
	return uint8((pc * 0xc2b2ae3d27d4eb4f >> 57)) & (1<<featureBits - 1)
}

// PushPC records a demand-load PC into core's history register.
func (s *Shared) PushPC(core int, pc uint64) {
	h := s.pchr[core]
	copy(h[1:], h[:len(h)-1])
	h[0] = feature(pc)
}

// historySnapshot packs the PCHR into a uint64 for OPTgen entry metadata,
// so training replays the history as it was at access time.
func (s *Shared) historySnapshot(core int) uint64 {
	var snap uint64
	for i, f := range s.pchr[core] {
		snap |= uint64(f) << (uint(i) * featureBits)
	}
	return snap
}

func (s *Shared) sum(bank int, sig uint32, snap uint64) int {
	e := &s.bank[bank][sig]
	total := 0
	for i := 0; i < HistoryLen; i++ {
		f := uint8(snap>>(uint(i)*featureBits)) & (1<<featureBits - 1)
		total += int(e[f])
	}
	return total
}

// train nudges the weights of the features active in snap toward the OPTgen
// outcome, with SVM-style margin: stop updating once confidently correct.
func (s *Shared) train(slice int, a repl.Access, sig uint32, snap uint64, friendly bool) {
	for _, b := range s.fab.TrainBanks(slice, a.Core, a.Cycle) {
		cur := s.sum(b, sig, snap)
		if friendly && cur > weightMax || !friendly && cur < weightMin {
			continue // outside margin: converged
		}
		e := &s.bank[b][sig]
		for i := 0; i < HistoryLen; i++ {
			f := uint8(snap>>(uint(i)*featureBits)) & (1<<featureBits - 1)
			w := &e[f]
			if friendly {
				if *w < weightMax {
					*w++
				}
			} else if *w > weightMin {
				*w--
			}
		}
	}
}

// predict evaluates the ISVM for (slice, core) and returns friendliness plus
// fill-path latency.
func (s *Shared) predict(slice int, a repl.Access, sig uint32) (friendly bool, lat uint32) {
	b, lat := s.fab.PredictBank(slice, a.Core, a.Cycle)
	return s.sum(b, sig, s.historySnapshot(a.Core)) > friendlyThreshold, lat
}

// Slice is the Glider instance for one LLC slice.
type Slice struct {
	shared  *Shared
	sliceID int
	sel     sampler.SetSelector
	selGen  uint64

	rrpv     []uint8
	lineSig  []uint32
	lineSnap []uint64
	lineCore []uint16
	lineFrnd []bool

	samples []*optgen.Set // by set; nil for sets without sampled history
	penalty uint32
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
		lineSnap: make([]uint64, g.Lines()),
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
func (p *Slice) Name() string { return "glider" }

// FillPenalty implements repl.FillLatencier.
func (p *Slice) FillPenalty() uint32 { return p.penalty }

func (p *Slice) idx(set, way int) int { return set*p.shared.g.Ways + way }

// maybeFlush drops sampled history for sets no longer sampled; sets that
// stay selected keep their history.
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

// OnAccess implements repl.Observer: PCHR update + OPTgen training.
func (p *Slice) OnAccess(set int, a repl.Access, hit bool) {
	if a.Type == mem.Writeback {
		return
	}
	if a.Type.IsDemand() {
		p.sel.OnAccess(set, hit)
		p.shared.PushPC(a.Core, a.PC)
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
	sig := p.shared.index(a.PC, a.Core)
	snap := p.shared.historySnapshot(a.Core)
	if e, found := ss.Lookup(a.Block); found {
		trainA := repl.Access{Core: int(e.Core), Cycle: a.Cycle}
		p.shared.train(p.sliceID, trainA, e.Sig, e.Meta, ss.OptHit(e.TS))
		e.Sig, e.Core, e.TS, e.Meta = sig, uint16(a.Core), ss.Time(), snap
	} else {
		ent := optgen.Entry{Sig: sig, Core: uint16(a.Core), TS: ss.Time(), Meta: snap}
		if old, evicted := ss.Insert(a.Block, ent); evicted {
			trainA := repl.Access{Core: int(old.Core), Cycle: a.Cycle}
			p.shared.train(p.sliceID, trainA, old.Sig, old.Meta, false)
		}
	}
	ss.Advance()
}

// OnHit implements repl.Policy.
func (p *Slice) OnHit(set, way int, a repl.Access) {
	if a.Type == mem.Writeback {
		return
	}
	i := p.idx(set, way)
	p.rrpv[i] = 0
	p.lineSig[i] = p.shared.index(a.PC, a.Core)
	p.lineSnap[i] = p.shared.historySnapshot(a.Core)
}

// Victim implements repl.Policy.
func (p *Slice) Victim(set int, _ repl.Access) int {
	base := set * p.shared.g.Ways
	maxW, maxV := 0, p.rrpv[base]
	for w := 0; w < p.shared.g.Ways; w++ {
		v := p.rrpv[base+w]
		if v == rrpvMax {
			return w
		}
		if v > maxV {
			maxW, maxV = w, v
		}
	}
	return maxW
}

// OnEvict implements repl.Policy.
func (p *Slice) OnEvict(set, way int, _, cycle uint64) {
	i := p.idx(set, way)
	if p.lineFrnd[i] && p.rrpv[i] < rrpvMax {
		a := repl.Access{Core: int(p.lineCore[i]), Cycle: cycle}
		p.shared.train(p.sliceID, a, p.lineSig[i], p.lineSnap[i], false)
	}
}

// OnFill implements repl.Policy.
func (p *Slice) OnFill(set, way int, a repl.Access) {
	i := p.idx(set, way)
	sig := p.shared.index(a.PC, a.Core)
	p.lineSig[i] = sig
	p.lineCore[i] = uint16(a.Core)
	p.lineSnap[i] = p.shared.historySnapshot(a.Core)

	if a.Type == mem.Writeback {
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
		return
	}
	base := set * p.shared.g.Ways
	for w := 0; w < p.shared.g.Ways; w++ {
		if base+w != i && p.rrpv[base+w] < rrpvMax-1 {
			p.rrpv[base+w]++
		}
	}
	p.rrpv[i] = 0
}

// Budget reports per-core storage in bytes.
func Budget(g repl.Geometry, dynamic bool) map[string]int {
	entries := HistoryFactor * g.Ways
	out := map[string]int{
		"sampled-cache": g.SampledSets * entries * 33 / 8,
		"isvm":          ISVMEntries * (1 << featureBits) * 6 / 8,
		"pchr":          HistoryLen,
		"rrip-counters": g.Lines() * 3 / 8,
	}
	if dynamic {
		out["saturating-counters"] = g.SetsPerSlice
	}
	return out
}
