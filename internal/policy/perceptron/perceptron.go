// Package perceptron implements perceptron learning for reuse prediction
// (Teran, Wang & Jiménez, MICRO'16): multiple feature tables — hashes of
// the PC, shifted PC bits, and block address bits — vote through saturating
// weights; the sum against thresholds decides bypass/insertion/promotion.
// Training data comes from sampled sets.
//
// Weight tables are banked through a fabric.Fabric, so D-Perceptron follows
// the same construction as the other prediction-based policies (Table 7).
package perceptron

import (
	"drishti/internal/fabric"
	"drishti/internal/mem"
	"drishti/internal/repl"
	"drishti/internal/sampler"
)

// TableBits is log2 of the entries per feature table: 4 tables × 4096
// 6-bit weights, 12 KB.
const TableBits = 12

const (
	numFeatures = 4
	weightMax   = 31
	weightMin   = -32
	// tauBypass: sums above it predict no-reuse strongly enough to bypass;
	// tauDead: sums above it insert at distant priority. Thresholds follow
	// the paper's two-level decision.
	tauBypass = 40
	tauDead   = 8
	// margin for training: keep updating until confidently correct. It
	// must exceed tauBypass or the weights could never reach it.
	trainMargin = 48
)

// Shared holds the banked feature tables.
type Shared struct {
	g   repl.Geometry
	fab *fabric.Fabric
	// bank × feature × entry; weights are "no-reuse" votes.
	w [][][]int8
}

// NewShared allocates weight banks.
func NewShared(g repl.Geometry, fab *fabric.Fabric) *Shared {
	s := &Shared{g: g, fab: fab}
	s.w = make([][][]int8, fab.NumBanks())
	for b := range s.w {
		s.w[b] = make([][]int8, numFeatures)
		for f := range s.w[b] {
			s.w[b][f] = make([]int8, 1<<TableBits)
		}
	}
	return s
}

// features hashes the multiperspective inputs into per-table indices.
func (s *Shared) features(pc, block uint64, core int) [numFeatures]uint32 {
	const mask = 1<<TableBits - 1
	var out [numFeatures]uint32
	out[0] = uint32((pc^uint64(core)*0x9e3779b97f4a7c15)>>2) & mask
	out[1] = uint32((pc>>5)*0xff51afd7ed558ccd>>30) & mask
	out[2] = uint32((block>>6)*0xc4ceb9fe1a85ec53>>31) & mask
	out[3] = uint32(((pc>>1)^block>>12)*0x2545f4914f6cdd1d>>32) & mask
	return out
}

func (s *Shared) sum(bank int, feat [numFeatures]uint32) int {
	total := 0
	for f := 0; f < numFeatures; f++ {
		total += int(s.w[bank][f][feat[f]])
	}
	return total
}

// train moves the weights toward noReuse, with a margin.
func (s *Shared) train(slice int, a repl.Access, feat [numFeatures]uint32, noReuse bool) {
	for _, b := range s.fab.TrainBanks(slice, a.Core, a.Cycle) {
		cur := s.sum(b, feat)
		if noReuse && cur > trainMargin || !noReuse && cur < -trainMargin {
			continue
		}
		for f := 0; f < numFeatures; f++ {
			w := &s.w[b][f][feat[f]]
			if noReuse {
				if *w < weightMax {
					*w++
				}
			} else if *w > weightMin {
				*w--
			}
		}
	}
}

// predict returns the no-reuse confidence sum and the fill-path latency.
func (s *Shared) predict(slice int, a repl.Access, feat [numFeatures]uint32) (sum int, lat uint32) {
	b, lat := s.fab.PredictBank(slice, a.Core, a.Cycle)
	return s.sum(b, feat), lat
}

// lineState is the per-line metadata.
type lineState struct {
	feat    [numFeatures]uint32
	core    uint16
	reused  bool
	sampled bool
	valid   bool
}

// Slice is the perceptron policy for one LLC slice: LRU base order with
// perceptron-driven bypass and distant insertion.
type Slice struct {
	shared  *Shared
	sliceID int
	sel     sampler.SetSelector

	stamps  []uint64
	clock   uint64
	lines   []lineState
	penalty uint32

	pendingSum   int
	pendingValid bool
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
func (p *Slice) Name() string { return "perceptron" }

// FillPenalty implements repl.FillLatencier.
func (p *Slice) FillPenalty() uint32 { return p.penalty }

func (p *Slice) idx(set, way int) int { return set*p.shared.g.Ways + way }

// OnAccess implements repl.Observer.
func (p *Slice) OnAccess(set int, a repl.Access, hit bool) {
	if a.Type.IsDemand() {
		p.sel.OnAccess(set, hit)
	}
}

// OnHit implements repl.Policy: reuse observed — train the inserting
// features as reused (once), promote.
func (p *Slice) OnHit(set, way int, a repl.Access) {
	if a.Type == mem.Writeback {
		return
	}
	i := p.idx(set, way)
	p.clock++
	p.stamps[i] = p.clock
	ln := &p.lines[i]
	if ln.sampled && ln.valid && !ln.reused {
		ln.reused = true
		p.shared.train(p.sliceID, a, ln.feat, false)
	}
}

// Victim implements repl.Policy: LRU order, with perceptron bypass for
// strongly no-reuse fills.
func (p *Slice) Victim(set int, a repl.Access) int {
	if a.Type.IsDemand() || a.Type == mem.Prefetch {
		feat := p.shared.features(a.PC, a.Block, a.Core)
		sum, lat := p.shared.predict(p.sliceID, a, feat)
		p.penalty = lat
		p.pendingSum, p.pendingValid = sum, true
		if sum >= tauBypass {
			return repl.Bypass
		}
	}
	base := set * p.shared.g.Ways
	best, bestStamp := 0, p.stamps[base]
	for w := 1; w < p.shared.g.Ways; w++ {
		if p.stamps[base+w] < bestStamp {
			best, bestStamp = w, p.stamps[base+w]
		}
	}
	return best
}

// OnEvict implements repl.Policy: dead sampled lines train as no-reuse.
func (p *Slice) OnEvict(set, way int, _, cycle uint64) {
	i := p.idx(set, way)
	ln := &p.lines[i]
	if ln.sampled && ln.valid && !ln.reused {
		a := repl.Access{Core: int(ln.core), Cycle: cycle}
		p.shared.train(p.sliceID, a, ln.feat, true)
	}
	p.lines[i] = lineState{}
}

// OnFill implements repl.Policy.
func (p *Slice) OnFill(set, way int, a repl.Access) {
	i := p.idx(set, way)
	p.clock++
	_, sampled := p.sel.IsSampled(set)
	if a.Type == mem.Writeback {
		p.stamps[i] = 0
		p.lines[i] = lineState{sampled: sampled}
		p.penalty = 0
		return
	}
	feat := p.shared.features(a.PC, a.Block, a.Core)
	sum := p.pendingSum
	if !p.pendingValid {
		var lat uint32
		sum, lat = p.shared.predict(p.sliceID, a, feat)
		p.penalty = lat
	}
	p.pendingValid = false
	if sum >= tauDead {
		p.stamps[i] = 0 // distant insertion
	} else {
		p.stamps[i] = p.clock
	}
	p.lines[i] = lineState{feat: feat, core: uint16(a.Core), sampled: sampled, valid: true}
}

// Budget reports per-core storage in bytes.
func Budget(g repl.Geometry, dynamic bool) map[string]int {
	out := map[string]int{
		"weights":       numFeatures * (1 << TableBits) * 6 / 8,
		"line-metadata": g.Lines() * 2,
	}
	if dynamic {
		out["saturating-counters"] = g.SetsPerSlice
	}
	return out
}
