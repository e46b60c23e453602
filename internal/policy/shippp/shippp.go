// Package shippp implements SHiP++ (Young et al., CRC-2), the enhanced
// signature-based hit predictor: RRIP replacement whose insertion position
// is chosen by a Signature History Counter Table (SHCT) trained on sampled
// sets. Like the other prediction-based policies in this repository, the
// SHCT is banked through a fabric.Fabric so Drishti's per-core-yet-global
// placement and the dynamic sampled cache apply directly (Table 7/8).
package shippp

import (
	"drishti/internal/fabric"
	"drishti/internal/mem"
	"drishti/internal/repl"
	"drishti/internal/sampler"
)

// SHCTEntries is the 3-bit signature history counters per bank: 16K
// entries, 6 KB.
const SHCTEntries = 16384

const (
	shctMax = 7 // 3-bit counters, as in SHiP++
	rrpvMax = 3 // 2-bit RRPV
)

// Shared holds the banked SHCT.
type Shared struct {
	g    repl.Geometry
	fab  *fabric.Fabric
	bank [][]uint8
}

// NewShared allocates the SHCT banks.
func NewShared(g repl.Geometry, fab *fabric.Fabric) *Shared {
	s := &Shared{g: g, fab: fab}
	s.bank = make([][]uint8, fab.NumBanks())
	for i := range s.bank {
		b := make([]uint8, SHCTEntries)
		for j := range b {
			b[j] = 1 // weakly not-reused, per the reference implementation
		}
		s.bank[i] = b
	}
	return s
}

func (s *Shared) index(pc uint64, core int, prefetch bool) uint32 {
	h := pc*0x9e3779b97f4a7c15 ^ uint64(core)*0xd6e8feb86659fd93
	if prefetch {
		h ^= 0xbf58476d1ce4e5b9
	}
	h ^= h >> 32
	return uint32(h) & (SHCTEntries - 1)
}

func (s *Shared) train(slice int, a repl.Access, sig uint32, reused bool) {
	for _, b := range s.fab.TrainBanks(slice, a.Core, a.Cycle) {
		c := &s.bank[b][sig]
		if reused {
			if *c < shctMax {
				*c++
			}
		} else if *c > 0 {
			*c--
		}
	}
}

func (s *Shared) predict(slice int, a repl.Access, sig uint32) (ctr uint8, lat uint32) {
	b, lat := s.fab.PredictBank(slice, a.Core, a.Cycle)
	return s.bank[b][sig], lat
}

// lineState is SHiP's per-line metadata.
type lineState struct {
	sig     uint32
	core    uint16
	outcome bool // reused since fill
	sampled bool // filled while its set was sampled
}

// Slice is the SHiP++ instance for one LLC slice.
type Slice struct {
	shared  *Shared
	sliceID int
	sel     sampler.SetSelector

	rrpv  []uint8
	lines []lineState

	penalty uint32
}

// NewSlice builds the per-slice policy instance.
func NewSlice(shared *Shared, sliceID int, sel sampler.SetSelector) *Slice {
	g := shared.g
	p := &Slice{
		shared:  shared,
		sliceID: sliceID,
		sel:     sel,
		rrpv:    make([]uint8, g.Lines()),
		lines:   make([]lineState, g.Lines()),
	}
	for i := range p.rrpv {
		p.rrpv[i] = rrpvMax
	}
	return p
}

// Name implements repl.Policy.
func (p *Slice) Name() string { return "ship++" }

// FillPenalty implements repl.FillLatencier.
func (p *Slice) FillPenalty() uint32 { return p.penalty }

func (p *Slice) idx(set, way int) int { return set*p.shared.g.Ways + way }

// OnAccess implements repl.Observer: feeds the dynamic sampled cache.
func (p *Slice) OnAccess(set int, a repl.Access, hit bool) {
	if a.Type.IsDemand() {
		p.sel.OnAccess(set, hit)
	}
}

// OnHit implements repl.Policy: promote and train reuse.
func (p *Slice) OnHit(set, way int, a repl.Access) {
	if a.Type == mem.Writeback {
		return
	}
	i := p.idx(set, way)
	p.rrpv[i] = 0
	ln := &p.lines[i]
	if ln.sampled && !ln.outcome {
		ln.outcome = true
		p.shared.train(p.sliceID, a, ln.sig, true)
	}
}

// Victim implements repl.Policy: standard RRIP victim search.
func (p *Slice) Victim(set int, _ repl.Access) int {
	base := set * p.shared.g.Ways
	for {
		for w := 0; w < p.shared.g.Ways; w++ {
			if p.rrpv[base+w] >= rrpvMax {
				return w
			}
		}
		for w := 0; w < p.shared.g.Ways; w++ {
			p.rrpv[base+w]++
		}
	}
}

// OnEvict implements repl.Policy: a sampled line evicted without reuse
// trains its signature as not-reused.
func (p *Slice) OnEvict(set, way int, _, cycle uint64) {
	i := p.idx(set, way)
	ln := &p.lines[i]
	if ln.sampled && !ln.outcome {
		a := repl.Access{Core: int(ln.core), Cycle: cycle}
		p.shared.train(p.sliceID, a, ln.sig, false)
	}
	ln.sampled = false
}

// OnFill implements repl.Policy: insertion position from the SHCT.
func (p *Slice) OnFill(set, way int, a repl.Access) {
	i := p.idx(set, way)
	sig := p.shared.index(a.PC, a.Core, a.Type == mem.Prefetch)
	_, sampled := p.sel.IsSampled(set)
	p.lines[i] = lineState{sig: sig, core: uint16(a.Core), sampled: sampled}

	if a.Type == mem.Writeback {
		p.rrpv[i] = rrpvMax
		p.penalty = 0
		return
	}
	ctr, lat := p.shared.predict(p.sliceID, a, sig)
	p.penalty = lat
	switch {
	case ctr == 0:
		p.rrpv[i] = rrpvMax // predicted dead on arrival
	case ctr >= shctMax:
		p.rrpv[i] = 0 // SHiP++: strongly reused signatures insert at MRU
	default:
		p.rrpv[i] = rrpvMax - 1
	}
}

// Budget reports per-core storage in bytes.
func Budget(g repl.Geometry, dynamic bool) map[string]int {
	out := map[string]int{
		"shct":          SHCTEntries * 3 / 8,
		"rrpv":          g.Lines() * 2 / 8,
		"line-metadata": g.Lines() * 16 / 8, // sig + outcome bits
	}
	if dynamic {
		out["saturating-counters"] = g.SetsPerSlice
	}
	return out
}
