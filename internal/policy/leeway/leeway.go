// Package leeway implements a Leeway-lite dead-block policy (Faldu & Grot,
// PACT'17): each line carries a "leeway" — how many set accesses it may sit
// unreferenced before it is considered dead — learned per PC from sampled
// sets. Leeway's energy insight is preserved: the predictor is consulted
// only on misses (fills), never on hits.
//
// Predictor tables are banked through a fabric.Fabric, so D-Leeway
// (per-core-yet-global predictor + dynamic sampled cache) follows.
package leeway

import (
	"drishti/internal/fabric"
	"drishti/internal/mem"
	"drishti/internal/repl"
	"drishti/internal/sampler"
)

// Table sizes.
const (
	// Entries is the predictor entries per bank: 4096 × 10-bit leeway +
	// confidence, 5 KB.
	Entries = 4096
	// MaxLeeway is the leeway ceiling in set accesses.
	MaxLeeway = 64
)

// lwEntry is a learned leeway value with hysteresis, following the paper's
// variability-tolerant update policy.
type lwEntry struct {
	leeway  uint8
	conf    uint8
	trained bool
}

// Shared holds the banked leeway predictor.
type Shared struct {
	g    repl.Geometry
	fab  *fabric.Fabric
	bank [][]lwEntry
}

// NewShared allocates predictor banks.
func NewShared(g repl.Geometry, fab *fabric.Fabric) *Shared {
	s := &Shared{g: g, fab: fab}
	s.bank = make([][]lwEntry, fab.NumBanks())
	for i := range s.bank {
		s.bank[i] = make([]lwEntry, Entries)
	}
	return s
}

func (s *Shared) index(pc uint64, core int) uint32 {
	h := pc*0x9e3779b97f4a7c15 ^ uint64(core)*0xc2b2ae3d27d4eb4f
	h ^= h >> 32
	return uint32(h) & (Entries - 1)
}

// train updates the learned leeway toward the observed live span (set
// accesses between fill/hit and the line's last use). Growth is immediate,
// shrinkage needs repeated evidence (the paper's asymmetric update).
func (s *Shared) train(slice int, a repl.Access, sig uint32, observed int) {
	obs := uint8(min(observed, MaxLeeway))
	for _, b := range s.fab.TrainBanks(slice, a.Core, a.Cycle) {
		e := &s.bank[b][sig]
		switch {
		case !e.trained:
			e.leeway, e.conf, e.trained = obs, 0, true
		case obs > e.leeway:
			e.leeway, e.conf = obs, 0
		case obs < e.leeway:
			if e.conf < 3 {
				e.conf++
			} else {
				e.leeway, e.conf = (e.leeway+obs)/2, 0
			}
		}
	}
}

// predict returns the leeway for sig. Consulted on fills only.
func (s *Shared) predict(slice int, a repl.Access, sig uint32) (leeway uint8, lat uint32) {
	b, lat := s.fab.PredictBank(slice, a.Core, a.Cycle)
	e := s.bank[b][sig]
	if !e.trained {
		return MaxLeeway / 2, lat
	}
	return e.leeway, lat
}

// lineState tracks per-line leeway and reuse bookkeeping.
type lineState struct {
	sig      uint32
	core     uint16
	leeway   uint8
	idleAcc  uint8 // set accesses since last use
	liveSpan uint8 // set accesses from fill to last use
	sampled  bool
}

// Slice is the Leeway instance for one LLC slice.
type Slice struct {
	shared  *Shared
	sliceID int
	sel     sampler.SetSelector

	stamps  []uint64
	clock   uint64
	lines   []lineState
	penalty uint32
}

// NewSlice builds the per-slice policy instance.
func NewSlice(shared *Shared, sliceID int, sel sampler.SetSelector) *Slice {
	g := shared.g
	return &Slice{
		shared:  shared,
		sliceID: sliceID,
		sel:     sel,
		stamps:  make([]uint64, g.Lines()),
		lines:   make([]lineState, g.Lines()),
	}
}

// Name implements repl.Policy.
func (p *Slice) Name() string { return "leeway" }

// FillPenalty implements repl.FillLatencier.
func (p *Slice) FillPenalty() uint32 { return p.penalty }

func (p *Slice) idx(set, way int) int { return set*p.shared.g.Ways + way }

// OnAccess implements repl.Observer: ages the set's idle counters.
func (p *Slice) OnAccess(set int, a repl.Access, hit bool) {
	if a.Type.IsDemand() {
		p.sel.OnAccess(set, hit)
	}
	base := set * p.shared.g.Ways
	for w := 0; w < p.shared.g.Ways; w++ {
		ln := &p.lines[base+w]
		if ln.idleAcc < 255 {
			ln.idleAcc++
		}
		if ln.liveSpan < 255 {
			ln.liveSpan++
		}
	}
}

// OnHit implements repl.Policy: no predictor access (Leeway's design point).
func (p *Slice) OnHit(set, way int, a repl.Access) {
	if a.Type == mem.Writeback {
		return
	}
	i := p.idx(set, way)
	p.clock++
	p.stamps[i] = p.clock
	ln := &p.lines[i]
	ln.idleAcc = 0
	ln.liveSpan = 0 // live span restarts from the last use
}

// dead reports whether the line has exhausted its leeway.
func (ln *lineState) dead() bool { return ln.idleAcc > ln.leeway }

// Victim implements repl.Policy: oldest dead line, else plain LRU.
func (p *Slice) Victim(set int, _ repl.Access) int {
	base := set * p.shared.g.Ways
	bestDead, bestLRU := -1, 0
	var deadStamp, lruStamp uint64
	for w := 0; w < p.shared.g.Ways; w++ {
		st := p.stamps[base+w]
		if p.lines[base+w].dead() && (bestDead < 0 || st < deadStamp) {
			bestDead, deadStamp = w, st
		}
		if w == 0 || st < lruStamp {
			bestLRU, lruStamp = w, st
		}
	}
	if bestDead >= 0 {
		return bestDead
	}
	return bestLRU
}

// OnEvict implements repl.Policy: sampled evictions train the live span the
// line actually needed.
func (p *Slice) OnEvict(set, way int, _, cycle uint64) {
	i := p.idx(set, way)
	ln := &p.lines[i]
	if ln.sampled && ln.sig != 0 {
		needed := int(ln.liveSpan) - int(ln.idleAcc) // span up to last use
		if needed < 0 {
			needed = 0
		}
		a := repl.Access{Core: int(ln.core), Cycle: cycle}
		p.shared.train(p.sliceID, a, ln.sig, needed)
	}
	p.lines[i] = lineState{}
}

// OnFill implements repl.Policy: the only predictor consultation.
func (p *Slice) OnFill(set, way int, a repl.Access) {
	i := p.idx(set, way)
	p.clock++
	p.stamps[i] = p.clock
	_, sampled := p.sel.IsSampled(set)
	if a.Type == mem.Writeback {
		p.lines[i] = lineState{leeway: 0, sampled: sampled}
		p.penalty = 0
		return
	}
	sig := p.shared.index(a.PC, a.Core)
	lw, lat := p.shared.predict(p.sliceID, a, sig)
	p.penalty = lat
	p.lines[i] = lineState{sig: sig, core: uint16(a.Core), leeway: lw, sampled: sampled}
}

// Budget reports per-core storage in bytes.
func Budget(g repl.Geometry, dynamic bool) map[string]int {
	out := map[string]int{
		"predictor":     Entries * 10 / 8, // leeway + confidence
		"line-metadata": g.Lines() * 3,
	}
	if dynamic {
		out["saturating-counters"] = g.SetsPerSlice
	}
	return out
}
