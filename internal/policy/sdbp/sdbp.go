// Package sdbp implements Sampling Dead Block Prediction (Khan, Tian &
// Jiménez, MICRO'10): a PC-indexed skewed predictor learns, from sampled
// sets, whether the load that last touched a block "killed" it (no further
// reuse before eviction). Predicted-dead lines become preferred victims and
// dead-on-arrival fills insert at distant priority.
//
// The predictor tables are banked through a fabric.Fabric and training data
// comes from a sampler.SetSelector, so D-SDBP (per-core-yet-global
// predictor + dynamic sampled cache) is the same code re-wired — the Table 7
// applicability row this package exists to demonstrate.
package sdbp

import (
	"drishti/internal/fabric"
	"drishti/internal/mem"
	"drishti/internal/repl"
	"drishti/internal/sampler"
)

// TableBits is log2 of the entries per skewed table: 3 tables × 4096
// 2-bit counters, 3 KB.
const TableBits = 12

const (
	numTables  = 3 // skewed predictor tables
	counterMax = 3 // 2-bit saturating counters per table
	// deadAt is the summed-counter threshold at/above which a PC's loads
	// are predicted to kill their block.
	deadAt = 6
)

// Shared holds the banked skewed predictor.
type Shared struct {
	g   repl.Geometry
	fab *fabric.Fabric
	// bank × table × entry
	tables [][][]uint8
}

// NewShared allocates predictor banks.
func NewShared(g repl.Geometry, fab *fabric.Fabric) *Shared {
	s := &Shared{g: g, fab: fab}
	s.tables = make([][][]uint8, fab.NumBanks())
	for b := range s.tables {
		s.tables[b] = make([][]uint8, numTables)
		for t := range s.tables[b] {
			s.tables[b][t] = make([]uint8, 1<<TableBits)
		}
	}
	return s
}

// indices computes the per-table skewed hash indices for (pc, core).
func (s *Shared) indices(pc uint64, core int) [numTables]uint32 {
	const mask = 1<<TableBits - 1
	h := pc ^ uint64(core)*0x9e3779b97f4a7c15
	var out [numTables]uint32
	out[0] = uint32(h*0xff51afd7ed558ccd>>29) & mask
	out[1] = uint32(h*0xc4ceb9fe1a85ec53>>31) & mask
	out[2] = uint32(h*0x2545f4914f6cdd1d>>33) & mask
	return out
}

// train moves the skewed counters toward dead (true) or live (false).
func (s *Shared) train(slice int, a repl.Access, pc uint64, core int, dead bool) {
	idx := s.indices(pc, core)
	for _, b := range s.fab.TrainBanks(slice, a.Core, a.Cycle) {
		for t := 0; t < numTables; t++ {
			c := &s.tables[b][t][idx[t]]
			if dead {
				if *c < counterMax {
					*c++
				}
			} else if *c > 0 {
				*c--
			}
		}
	}
}

// predict sums the skewed counters; at/above threshold the block is dead.
func (s *Shared) predict(slice int, a repl.Access, pc uint64, core int) (dead bool, lat uint32) {
	b, lat := s.fab.PredictBank(slice, a.Core, a.Cycle)
	idx := s.indices(pc, core)
	sum := 0
	for t := 0; t < numTables; t++ {
		sum += int(s.tables[b][t][idx[t]])
	}
	return sum >= deadAt, lat
}

// lineState is SDBP's per-line metadata.
type lineState struct {
	pc      uint64
	core    uint16
	dead    bool // current prediction for this line
	reused  bool
	sampled bool
}

// Slice is the SDBP instance for one LLC slice; LRU base order with
// dead-block victim preference. Implements repl.Policy, repl.Observer,
// and repl.FillLatencier.
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
func (p *Slice) Name() string { return "sdbp" }

// FillPenalty implements repl.FillLatencier.
func (p *Slice) FillPenalty() uint32 { return p.penalty }

func (p *Slice) idx(set, way int) int { return set*p.shared.g.Ways + way }

// OnAccess implements repl.Observer.
func (p *Slice) OnAccess(set int, a repl.Access, hit bool) {
	if a.Type.IsDemand() {
		p.sel.OnAccess(set, hit)
	}
}

// OnHit implements repl.Policy: the previous toucher did NOT kill the
// block — train live, re-predict for the new toucher.
func (p *Slice) OnHit(set, way int, a repl.Access) {
	if a.Type == mem.Writeback {
		return
	}
	i := p.idx(set, way)
	p.clock++
	p.stamps[i] = p.clock
	ln := &p.lines[i]
	if ln.sampled {
		p.shared.train(p.sliceID, a, ln.pc, int(ln.core), false)
	}
	ln.pc, ln.core, ln.reused = a.PC, uint16(a.Core), true
	// A reused line is alive again; the predictor is consulted only on
	// fills, keeping hits off the (possibly remote) predictor path.
	ln.dead = false
}

// Victim implements repl.Policy: prefer predicted-dead lines, else LRU.
func (p *Slice) Victim(set int, _ repl.Access) int {
	base := set * p.shared.g.Ways
	bestDead, bestLRU := -1, 0
	var deadStamp, lruStamp uint64
	for w := 0; w < p.shared.g.Ways; w++ {
		st := p.stamps[base+w]
		if p.lines[base+w].dead && (bestDead < 0 || st < deadStamp) {
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

// OnEvict implements repl.Policy: eviction without reuse trains dead.
func (p *Slice) OnEvict(set, way int, _, cycle uint64) {
	i := p.idx(set, way)
	ln := &p.lines[i]
	if ln.sampled && !ln.reused && ln.pc != 0 {
		a := repl.Access{Core: int(ln.core), Cycle: cycle}
		p.shared.train(p.sliceID, a, ln.pc, int(ln.core), true)
	}
	p.lines[i] = lineState{}
}

// OnFill implements repl.Policy.
func (p *Slice) OnFill(set, way int, a repl.Access) {
	i := p.idx(set, way)
	p.clock++
	_, sampled := p.sel.IsSampled(set)
	if a.Type == mem.Writeback {
		p.stamps[i] = 0 // dirty fills at LRU position
		p.lines[i] = lineState{sampled: sampled}
		p.penalty = 0
		return
	}
	dead, lat := p.shared.predict(p.sliceID, a, a.PC, a.Core)
	p.penalty = lat
	if dead {
		p.stamps[i] = 0 // dead-on-arrival: immediate victim candidate
	} else {
		p.stamps[i] = p.clock
	}
	p.lines[i] = lineState{pc: a.PC, core: uint16(a.Core), dead: dead, sampled: sampled}
}

// Budget reports per-core storage in bytes.
func Budget(g repl.Geometry, dynamic bool) map[string]int {
	out := map[string]int{
		"predictor":     numTables * (1 << TableBits) * 2 / 8,
		"line-metadata": g.Lines() * 3,
	}
	if dynamic {
		out["saturating-counters"] = g.SetsPerSlice
	}
	return out
}
