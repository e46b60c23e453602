// Package mockingjay implements the Mockingjay LLC replacement policy (Shah,
// Jain & Lin, HPCA'22): Belady emulation generalized to multi-class reuse —
// a reuse-distance predictor (RDP) drives per-line Estimated Time Remaining
// (ETR) counters, and the victim is the line whose reuse is furthest away.
//
// Like the hawkeye package, the implementation is slice-aware: RDP tables
// are banked through a fabric.Fabric (baseline Mockingjay = local banks,
// D-Mockingjay = per-core-yet-global banks over NOCSTAR), and sampled sets
// come from a sampler.SetSelector.
package mockingjay

import (
	"math"

	"drishti/internal/fabric"
	"drishti/internal/mem"
	"drishti/internal/oatable"
	"drishti/internal/repl"
	"drishti/internal/sampler"
)

// Table sizes (Table 3).
const (
	// RDPEntries is the 7-bit reuse-distance predictor entries per bank:
	// 2K entries, 1.75 KB.
	RDPEntries = 2048
	// Granularity is the ETR clock's step in set accesses: 5-bit ETR
	// counters aged by a 3-bit per-set clock.
	Granularity = 8
)

// InfRD is the sentinel predicted reuse distance for lines never reused
// within the modeled window.
const InfRD = int16(0x7fff)

// rdpEntry is one RDP slot: a predicted (scaled) reuse distance plus a
// trained bit.
type rdpEntry struct {
	rd      int16
	trained bool
}

// Shared holds the banked reuse-distance predictor.
type Shared struct {
	g    repl.Geometry
	fab  *fabric.Fabric
	bank [][]rdpEntry
	// maxRD is 8×Ways×Granularity: reuse distances at/above it train as
	// INF.
	maxRD int
}

// NewShared allocates RDP banks for the given fabric placement.
func NewShared(g repl.Geometry, fab *fabric.Fabric) *Shared {
	s := &Shared{g: g, fab: fab, maxRD: 8 * g.Ways * Granularity}
	s.bank = make([][]rdpEntry, fab.NumBanks())
	for i := range s.bank {
		s.bank[i] = make([]rdpEntry, RDPEntries)
	}
	return s
}

// index hashes (PC, core, prefetch) into an RDP entry.
func (s *Shared) index(pc uint64, core int, prefetch bool) uint32 {
	h := pc*0x9e3779b97f4a7c15 ^ uint64(core)*0x94d049bb133111eb
	if prefetch {
		h ^= 0xbf58476d1ce4e5b9
	}
	h ^= h >> 31
	return uint32(h) & (RDPEntries - 1)
}

// train updates the RDP entry for sig toward the observed reuse distance
// using Mockingjay's saturating temporal-difference rule.
func (s *Shared) train(slice int, a repl.Access, sig uint32, observedRD int) {
	obs := int16(observedRD)
	if observedRD >= s.maxRD {
		obs = InfRD
	}
	for _, b := range s.fab.TrainBanks(slice, a.Core, a.Cycle) {
		e := &s.bank[b][sig]
		switch {
		case !e.trained:
			e.rd = obs
			e.trained = true
		case obs == InfRD:
			// Scan evidence: move sharply toward INF.
			if e.rd > int16(s.maxRD/2) {
				e.rd = InfRD
			} else {
				e.rd += int16(s.maxRD / 4)
			}
		case e.rd == InfRD:
			// Evidence of reuse after an INF prediction: come back down.
			e.rd = int16(s.maxRD/2) + obs/2
		default:
			diff := obs - e.rd
			step := diff / 4
			if step == 0 {
				if diff > 0 {
					step = 1
				} else if diff < 0 {
					step = -1
				}
			}
			e.rd += step
		}
	}
}

// predict returns the predicted reuse distance for sig from the bank serving
// (slice, core), whether the entry is trained, and the fill-path latency.
func (s *Shared) predict(slice int, a repl.Access, sig uint32) (rd int16, trained bool, lat uint32) {
	b, lat := s.fab.PredictBank(slice, a.Core, a.Cycle)
	e := s.bank[b][sig]
	return e.rd, e.trained, lat
}

// Peek reads the predicted (scaled) ETR value for a PC/core without traffic
// accounting — used by the Fig 3/18 ETR-view experiments.
func (s *Shared) Peek(bank int, pc uint64, core int) (rd int16, trained bool) {
	e := s.bank[bank][s.index(pc, core, false)]
	return e.rd, e.trained
}

// sampEntry is one sampled-cache line: the last PC to touch the block and
// the set-local timestamp of that touch.
type sampEntry struct {
	sig  uint32
	core uint16
	ts   uint32
}

// sampleSet tracks recent lines of one sampled set: an oatable keyed by
// block with each entry inline in its slot, so tracking a line allocates
// nothing.
type sampleSet struct {
	entries *oatable.Table[sampEntry]
	time    uint32
}

// newSampleSet builds an empty sampled set holding up to capacity lines.
func newSampleSet(capacity int) *sampleSet {
	return &sampleSet{entries: oatable.NewSmall[sampEntry](2 * capacity)}
}

// Slice is the Mockingjay instance for one LLC slice. It implements
// repl.Policy, repl.Observer, and repl.FillLatencier.
type Slice struct {
	shared  *Shared
	sliceID int
	sel     sampler.SetSelector
	selGen  uint64

	etr      []int16 // sets×ways, scaled by Granularity
	etrValid []bool
	setClock []uint16 // per-set access counter for ETR aging

	samples []*sampleSet // by set; nil for sets without sampled history
	penalty uint32

	// pending caches the predictor lookup made during victim selection so
	// the subsequent OnFill of the same block reuses it (one predictor
	// access per fill, as in the hardware design).
	pending struct {
		block   uint64
		rd      int16
		trained bool
		valid   bool
	}

	// ETRFillHist records predicted ETR values at fill (Fig 4 histograms);
	// populated only when CollectETR is set.
	CollectETR  bool
	ETRFills    []int16
	Bypasses    uint64
	InfPredicts uint64

	// Training-coverage stats: fills that consulted a trained vs untrained
	// RDP entry (the myopic effect shows up as a high untrained fraction).
	FillsTrained   uint64
	FillsUntrained uint64
}

// NewSlice builds the per-slice policy instance.
func NewSlice(shared *Shared, sliceID int, sel sampler.SetSelector) *Slice {
	g := shared.g
	p := &Slice{
		shared:   shared,
		sliceID:  sliceID,
		sel:      sel,
		selGen:   sel.Generation(),
		etr:      make([]int16, g.Lines()),
		etrValid: make([]bool, g.Lines()),
		setClock: make([]uint16, g.SetsPerSlice),
		samples:  make([]*sampleSet, g.SetsPerSlice),
	}
	return p
}

// Name implements repl.Policy.
func (p *Slice) Name() string { return "mockingjay" }

// FillPenalty implements repl.FillLatencier.
func (p *Slice) FillPenalty() uint32 { return p.penalty }

func (p *Slice) idx(set, way int) int { return set*p.shared.g.Ways + way }

// maybeFlush drops sampled history for sets no longer sampled; sets that
// stay selected keep their entries (the hardware state remains valid).
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

// sampleCapacity bounds each sampled set's tracked lines; beyond this a
// line has aged past the modeled window and trains as never-reused.
func (p *Slice) sampleCapacity() int { return 8 * p.shared.g.Ways }

// OnAccess implements repl.Observer: sampled-cache reuse tracking.
func (p *Slice) OnAccess(set int, a repl.Access, hit bool) {
	if a.Type == mem.Writeback {
		return
	}
	if a.Type.IsDemand() {
		p.sel.OnAccess(set, hit)
	}
	p.maybeFlush()
	p.ageSet(set)
	if _, ok := p.sel.IsSampled(set); !ok {
		return
	}
	ss := p.samples[set]
	if ss == nil {
		ss = newSampleSet(p.sampleCapacity())
		p.samples[set] = ss
	}
	sig := p.shared.index(a.PC, a.Core, a.Type == mem.Prefetch)
	if e := ss.entries.Get(a.Block); e != nil {
		observed := int(ss.time - e.ts)
		p.shared.train(p.sliceID, repl.Access{Core: int(e.core), Cycle: a.Cycle}, e.sig, observed)
		e.sig, e.core, e.ts = sig, uint16(a.Core), ss.time
	} else {
		if ss.entries.Len() >= p.sampleCapacity() {
			p.evictOldest(ss, a)
		}
		*ss.entries.Insert(a.Block) = sampEntry{sig: sig, core: uint16(a.Core), ts: ss.time}
	}
	ss.time++
}

// evictOldest drops the LRU sampled entry and trains its PC as not-reused
// (INFINITE reuse distance, Section 2). Every entry's ts is the set time of
// a distinct access, so the oldest entry is unique and the slot order of
// the scan cannot change the choice. Each slot's key packs its
// complemented age above its index (all ones for a free slot), and the
// smallest key is the oldest entry.
func (p *Slice) evictOldest(ss *sampleSet, a repl.Access) {
	best := uint64(math.MaxUint64)
	for i := range ss.entries.Cap() {
		_, e, live := ss.entries.At(i)
		dead := uint64(0)
		if !live {
			dead = math.MaxUint64
		}
		best = min(best, uint64(^(ss.time-e.ts))<<32|uint64(i)|dead)
	}
	block, e, _ := ss.entries.At(int(uint32(best)))
	old := *e
	ss.entries.Delete(block)
	p.shared.train(p.sliceID, repl.Access{Core: int(old.core), Cycle: a.Cycle}, old.sig, p.shared.maxRD)
}

// ageSet decrements every line's ETR once per Granularity accesses to the
// set — the "clock" that turns predicted reuse distances into estimated
// time remaining.
func (p *Slice) ageSet(set int) {
	p.setClock[set]++
	if p.setClock[set] < Granularity {
		return
	}
	p.setClock[set] = 0
	base := set * p.shared.g.Ways
	for w := 0; w < p.shared.g.Ways; w++ {
		i := base + w
		if p.etrValid[i] && p.etr[i] > minETR {
			p.etr[i]--
		}
	}
}

// minETR floors aged ETRs: a very negative ETR means "long overdue".
const minETR = -127

// scaled converts a predicted reuse distance into an ETR counter value.
func (p *Slice) scaled(rd int16) int16 {
	if rd == InfRD {
		return int16(p.shared.maxRD/Granularity) + 1
	}
	return rd / Granularity
}

// OnHit implements repl.Policy: re-estimate the line's time remaining.
func (p *Slice) OnHit(set, way int, a repl.Access) {
	if a.Type == mem.Writeback {
		return
	}
	i := p.idx(set, way)
	sig := p.shared.index(a.PC, a.Core, a.Type == mem.Prefetch)
	rd, trained, _ := p.shared.predict(p.sliceID, a, sig)
	if !trained {
		rd = p.defaultRD()
	}
	p.etr[i] = p.scaled(rd)
	p.etrValid[i] = true
}

// DefaultRDDivisor tunes the reuse distance assumed for PCs the RDP has not
// seen: MaxRD/DefaultRDDivisor. Small divisors treat unknowns as近-scans;
// large divisors protect them.
var DefaultRDDivisor = 2

// defaultRD is the reuse distance assumed for PCs the RDP has not seen:
// a middle priority, so unknown lines neither pin the set (rd=0 would make
// them the last evicted) nor bypass.
func (p *Slice) defaultRD() int16 { return int16(p.shared.maxRD / DefaultRDDivisor) }

// Victim implements repl.Policy: evict the line with the largest |ETR|
// (reuse furthest in the future or most overdue). A demand fill whose own
// prediction is INF bypasses when every resident line is expected sooner.
//
// The order is: an invalid way first; then the largest |ETR|; on a tie the
// overdue (negative) line; then the lowest way. The scan packs each way's
// rank into one key whose minimum is the victim, so it is one branch-free
// min per way.
func (p *Slice) Victim(set int, a repl.Access) int {
	ways := p.shared.g.Ways
	base := set * ways
	best := uint64(math.MaxUint64)
	for w := range ways {
		best = min(best, victimKey(p.etr[base+w], p.etrValid[base+w], w))
	}
	maxW := int(best & keyWayMask)
	if best>>keyValidShift == 0 {
		return maxW
	}
	maxAbs := int16(keyAbsMax - (best>>keyAbsShift)&keyAbsMax)
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

// Victim key layout, most significant first: a valid bit (0 for an
// invalid way, which therefore sorts first), keyAbsMax-|ETR|, a
// non-negative-ETR bit, and the way. An invalid way's key is its way
// alone.
const (
	keyWayBits    = 16 // cache.Config caps ways at 1<<15
	keyWayMask    = 1<<keyWayBits - 1
	keyAbsShift   = keyWayBits + 1
	keyAbsMax     = 1<<17 - 1 // |ETR| of an int16 is at most 1<<15
	keyValidShift = keyAbsShift + 17
)

// victimKey is one way's rank in Victim's packed order.
func victimKey(etr int16, valid bool, way int) uint64 {
	e := int64(etr)
	abs := max(e, -e)
	nonNeg := uint64(^e) >> 63 // 1 when etr ≥ 0
	valid64 := uint64(0)
	if valid {
		valid64 = 1
	}
	k := 1<<keyValidShift | uint64(keyAbsMax-abs)<<keyAbsShift | nonNeg<<keyWayBits
	return k&-valid64 | uint64(way)
}

// OnEvict implements repl.Policy.
func (p *Slice) OnEvict(set, way int, _, _ uint64) {
	i := p.idx(set, way)
	p.etrValid[i] = false
}

// OnFill implements repl.Policy: install with the predicted ETR.
func (p *Slice) OnFill(set, way int, a repl.Access) {
	i := p.idx(set, way)
	if a.Type == mem.Writeback {
		// Dirty fills get the lowest priority: maximum time-remaining.
		p.etr[i] = int16(p.shared.maxRD/Granularity) + 1
		p.etrValid[i] = true
		p.penalty = 0
		return
	}
	var (
		rd      int16
		trained bool
	)
	if p.pending.valid && p.pending.block == a.Block {
		rd, trained = p.pending.rd, p.pending.trained
		p.pending.valid = false
	} else {
		sig := p.shared.index(a.PC, a.Core, a.Type == mem.Prefetch)
		var lat uint32
		rd, trained, lat = p.shared.predict(p.sliceID, a, sig)
		p.penalty = lat
	}
	if trained {
		p.FillsTrained++
	} else {
		p.FillsUntrained++
		rd = p.defaultRD()
	}
	p.etr[i] = p.scaled(rd)
	p.etrValid[i] = true
	if p.CollectETR {
		p.ETRFills = append(p.ETRFills, p.etr[i])
	}
}

// Budget reports per-core storage in bytes, following Table 3's hardware
// entry sizes: the 32-set sampled cache costs 9.41 KB (≈301 B/set), the
// 2K-entry 7-bit RDP 1.75 KB, and ETR state 20.75 KB for a 2048×16 slice
// (5-bit ETR per line plus a 3-bit clock per set).
func Budget(g repl.Geometry, dynamic bool) map[string]int {
	out := map[string]int{
		"sampled-cache": 9637 * g.SampledSets / 32, // 9.41 KB at 32 sets
		"predictor":     RDPEntries * 7 / 8,
		"etr-counters":  g.Lines()*5/8 + g.SetsPerSlice*3/8,
	}
	if dynamic {
		out["saturating-counters"] = g.SetsPerSlice
	}
	return out
}
