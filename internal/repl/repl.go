// Package repl defines the replacement-policy interface used by every cache
// level, plus the classic baseline policies (LRU, Random, SRRIP, BRRIP,
// DIP). State-of-the-art sampled-cache policies (Hawkeye, Mockingjay,
// SHiP++, Glider, CHROME) live in internal/policy/*; they implement the same
// interface.
package repl

import (
	"cmp"
	"math"
	"slices"

	"drishti/internal/mem"
)

// Bypass is the sentinel Victim result meaning "do not cache this fill".
const Bypass = -1

// Access describes one cache access as seen by a replacement policy.
type Access struct {
	PC    uint64         // program counter (prefetches carry the trigger PC)
	Block uint64         // block address
	Core  int            // originating core
	Set   int            // set index within this cache (or slice)
	Type  mem.AccessType // load / rfo / prefetch / writeback
	Cycle uint64         // core cycle at issue (for interconnect arbitration)
}

// Policy makes per-set replacement decisions for one cache (or LLC slice).
// Implementations are single-threaded; the simulator serializes accesses.
type Policy interface {
	// Name identifies the policy for reports.
	Name() string
	// OnHit is called when a lookup hits way in set.
	OnHit(set, way int, a Access)
	// Victim selects the way to evict for an incoming fill, or Bypass.
	Victim(set int, a Access) int
	// OnFill is called after the fill is installed in way.
	OnFill(set, way int, a Access)
	// OnEvict is called when the line in way is evicted (before OnFill of
	// the replacing line). evictedBlock is the block being removed; cycle
	// is the issue cycle of the access whose fill evicts it (or of the
	// eviction that invalidates it), the time any predictor training the
	// eviction triggers crosses the interconnect.
	OnEvict(set, way int, evictedBlock, cycle uint64)
}

// Observer is an optional extension: policies that train on every access to
// a set (sampled-cache policies) implement it to see accesses — including
// hits and misses — before the hit/victim path runs.
type Observer interface {
	// OnAccess observes an access to set before it is serviced.
	OnAccess(set int, a Access, hit bool)
}

// FillLatencier is an optional extension: policies whose fill path consults
// a remote predictor report the extra cycles the last fill decision cost
// (Drishti Section 4.1.3 — this is what makes Fig 11 reproducible).
type FillLatencier interface {
	// FillPenalty returns the interconnect cycles added to the last fill.
	FillPenalty() uint32
}

// Geometry is the sliced LLC a predictor policy (internal/policy/*)
// attaches to: Slices slices of SetsPerSlice×Ways lines, Cores cores
// sharing the predictor fabric, and SampledSets sampled sets per slice.
// internal/policies validates it once, before any policy sees it.
type Geometry struct {
	Slices       int
	Cores        int
	SetsPerSlice int
	Ways         int
	SampledSets  int
}

// Lines is the number of lines in one slice.
func (g Geometry) Lines() int { return g.SetsPerSlice * g.Ways }

// --- LRU -------------------------------------------------------------------

// LRU is true least-recently-used replacement via per-set recency stamps.
// Each set owns one row of ways+1 uint16s in a flat array: slot 0 is the
// set's touch counter and slots 1…ways hold the ways' stamps (0 = never
// touched, or demoted to the LRU position). A touch bumps the counter and
// stamps the way with it. When the counter reaches 65535 the set's nonzero
// stamps are first renumbered 1…k in their existing order, which leaves at
// least 65535-k ≥ 32767 touches of headroom (cache.Config caps ways at
// 1<<15). Victim compares stamps only within one set, so renumbering never
// changes a decision.
type LRU struct {
	ways   int
	stride int // ways + 1: one row per set
	stamps []uint16
}

// NewLRU builds an LRU policy for a sets×ways cache.
func NewLRU(sets, ways int) *LRU { return RenewLRU(nil, sets, ways) }

// RenewLRU is NewLRU building into spare, a policy its caller no longer
// uses (nil for none): an *LRU of the same geometry is reset to the state
// NewLRU leaves it in and returned; any other spare is ignored.
func RenewLRU(spare Policy, sets, ways int) *LRU {
	l, ok := spare.(*LRU)
	if !ok || l.ways != ways || len(l.stamps) != sets*(ways+1) {
		return &LRU{ways: ways, stride: ways + 1, stamps: make([]uint16, sets*(ways+1))}
	}
	clear(l.stamps)
	return l
}

// Name implements Policy.
func (l *LRU) Name() string { return "lru" }

// OnHit implements Policy.
func (l *LRU) OnHit(set, way int, _ Access) { l.touch(set, way) }

// OnFill implements Policy.
func (l *LRU) OnFill(set, way int, _ Access) { l.touch(set, way) }

// OnEvict implements Policy.
func (l *LRU) OnEvict(int, int, uint64, uint64) {}

// Demote moves way to the LRU position of set: stamp 0, the next victim
// unless a lower way of the set also holds stamp 0.
func (l *LRU) Demote(set, way int) { l.stamps[set*l.stride+1+way] = 0 }

// touch stamps way as the most recent in set. It is the whole of OnHit
// and OnFill, the private caches' hottest callbacks, so it must stay
// inlinable (make inline-check).
func (l *LRU) touch(set, way int) {
	touchRow(l.stamps[set*l.stride:(set+1)*l.stride], way, renumberLRU)
}

// touchRow bumps the counter in row[0], renumbering the row first when the
// counter is full, and stamps way with it. The renumber function is a
// parameter only for the inliner: a call through a parameter is charged 17
// against the budget of 80 where a direct call is charged 57, which would
// put touch over it. Once touch is inlined the argument is a constant and
// the call is a direct one again.
func touchRow(row []uint16, way int, renumber func([]uint16)) {
	if row[0] == math.MaxUint16 {
		renumber(row)
	}
	row[0]++
	row[1+way] = row[0]
}

// renumberLRU rewrites one set's row: the nonzero stamps in row[1:] become
// 1…k, keeping their order, zero stamps stay zero, and the counter in
// row[0] restarts at k. Nonzero stamps in a row are distinct (each came
// from a distinct counter value), so the order is total.
func renumberLRU(row []uint16) {
	stamps := row[1:]
	live := make([]int, 0, len(stamps))
	for w, st := range stamps {
		if st != 0 {
			live = append(live, w)
		}
	}
	slices.SortFunc(live, func(a, b int) int { return cmp.Compare(stamps[a], stamps[b]) })
	for i, w := range live {
		stamps[w] = uint16(i + 1)
	}
	row[0] = uint16(len(live))
}

// Victim implements Policy: the way with the oldest stamp, the lowest such
// way on a tie. Each way's key packs its stamp above its index, so the
// smallest key is that way and the scan is one branch-free min per way.
func (l *LRU) Victim(set int, _ Access) int {
	base := set*l.stride + 1
	best := uint32(math.MaxUint32)
	for w, st := range l.stamps[base : base+l.ways] {
		best = min(best, uint32(st)<<16|uint32(w))
	}
	return int(best & 0xffff)
}

// --- Random ------------------------------------------------------------------

// Random evicts a pseudo-random way; the cheapest possible baseline.
type Random struct {
	ways  int
	state uint64
}

// NewRandom builds a Random policy with the given seed.
func NewRandom(ways int, seed uint64) *Random {
	return &Random{ways: ways, state: seed | 1}
}

// Name implements Policy.
func (r *Random) Name() string { return "random" }

// OnHit implements Policy.
func (r *Random) OnHit(int, int, Access) {}

// OnFill implements Policy.
func (r *Random) OnFill(int, int, Access) {}

// OnEvict implements Policy.
func (r *Random) OnEvict(int, int, uint64, uint64) {}

// Victim implements Policy.
func (r *Random) Victim(int, Access) int {
	r.state = r.state*6364136223846793005 + 1442695040888963407
	return int((r.state >> 33) % uint64(r.ways))
}

// --- SRRIP / BRRIP ----------------------------------------------------------

// rrpvMax is the 2-bit re-reference prediction value ceiling.
const rrpvMax = 3

// SRRIP implements static re-reference interval prediction (Jaleel et al.,
// ISCA'10): insert at long re-reference (rrpvMax-1), promote to 0 on hit.
type SRRIP struct {
	ways int
	rrpv []uint8 // flat sets×ways
}

// NewSRRIP builds an SRRIP policy for a sets×ways cache.
func NewSRRIP(sets, ways int) *SRRIP { return RenewSRRIP(nil, sets, ways) }

// RenewSRRIP is NewSRRIP building into spare, a policy its caller no longer
// uses (nil for none): an *SRRIP of the same geometry is reset to the state
// NewSRRIP leaves it in and returned; any other spare, a *BRRIP included,
// is ignored.
func RenewSRRIP(spare Policy, sets, ways int) *SRRIP {
	s, ok := spare.(*SRRIP)
	if !ok || s.ways != ways || len(s.rrpv) != sets*ways {
		s = &SRRIP{ways: ways, rrpv: make([]uint8, sets*ways)}
	}
	for i := range s.rrpv {
		s.rrpv[i] = rrpvMax
	}
	return s
}

// Name implements Policy.
func (s *SRRIP) Name() string { return "srrip" }

// OnHit implements Policy.
func (s *SRRIP) OnHit(set, way int, _ Access) { s.rrpv[set*s.ways+way] = 0 }

// OnFill implements Policy.
func (s *SRRIP) OnFill(set, way int, _ Access) { s.rrpv[set*s.ways+way] = rrpvMax - 1 }

// OnEvict implements Policy.
func (s *SRRIP) OnEvict(set, way int, _, _ uint64) { s.rrpv[set*s.ways+way] = rrpvMax }

// Victim implements Policy: first way at rrpvMax, aging until one exists.
// The classic formulation loops scan-then-increment rounds; since every
// round adds exactly one to every way, the fixed point is reached directly
// by aging the whole row by rrpvMax minus its maximum, and the victim is
// the first way that held that maximum. One scan plus at most one
// increment pass, with the same final rrpv state and the same choice.
//
// The scan packs each way's inverted rrpv above its index and takes the
// smallest key, which is the first way holding the maximum.
func (s *SRRIP) Victim(set int, _ Access) int {
	row := s.rrpv[set*s.ways : set*s.ways+s.ways]
	best := uint32(math.MaxUint32)
	for w, v := range row {
		best = min(best, uint32(rrpvMax-v)<<16|uint32(w))
	}
	if d := uint8(best >> 16); d > 0 {
		for w := range row {
			row[w] += d
		}
	}
	return int(best & 0xffff)
}

// BRRIP is bimodal RRIP: like SRRIP but inserts at distant re-reference
// most of the time, protecting the cache from scans.
type BRRIP struct {
	SRRIP
	ctr uint32
}

// NewBRRIP builds a BRRIP policy for a sets×ways cache.
func NewBRRIP(sets, ways int) *BRRIP {
	return &BRRIP{SRRIP: *NewSRRIP(sets, ways)}
}

// Name implements Policy.
func (b *BRRIP) Name() string { return "brrip" }

// OnFill implements Policy: 1-in-32 fills get rrpvMax-1, the rest rrpvMax.
func (b *BRRIP) OnFill(set, way int, _ Access) {
	b.ctr++
	if b.ctr%32 == 0 {
		b.rrpv[set*b.ways+way] = rrpvMax - 1
	} else {
		b.rrpv[set*b.ways+way] = rrpvMax
	}
}

// --- DIP ---------------------------------------------------------------------

// DIP implements the dynamic insertion policy (Qureshi et al., ISCA'07) via
// set dueling between LRU insertion and bimodal insertion.
type DIP struct {
	lru      *LRU
	sets     int
	ways     int
	leaderA  []bool // per-set: LRU-insertion leader
	leaderB  []bool // per-set: BIP-insertion leader
	psel     int32
	pselMax  int32
	bipCtr   uint32
	fillsLRU bool // scratch: decision for the current fill
}

// NewDIP builds a DIP policy with 32 leader sets per team.
func NewDIP(sets, ways int, seed uint64) *DIP {
	d := &DIP{
		lru:     NewLRU(sets, ways),
		sets:    sets,
		ways:    ways,
		leaderA: make([]bool, sets),
		leaderB: make([]bool, sets),
		pselMax: 1024,
		psel:    512,
	}
	// Deterministic leader selection: stride the sets. At most a quarter
	// of the sets lead (an eighth per team) so followers always exist.
	n := 32
	if n > sets/8 {
		n = sets / 8
	}
	if n == 0 {
		n = 1
	}
	for i := 0; i < n; i++ {
		d.leaderA[(i*sets)/n] = true
		if b := (i*sets)/n + 1; b < sets {
			d.leaderB[b] = true
		}
	}
	_ = seed
	return d
}

// Name implements Policy.
func (d *DIP) Name() string { return "dip" }

// OnHit implements Policy.
func (d *DIP) OnHit(set, way int, a Access) { d.lru.OnHit(set, way, a) }

// OnEvict implements Policy.
func (d *DIP) OnEvict(int, int, uint64, uint64) {}

// OnAccess implements Observer: misses in leader sets move PSEL.
func (d *DIP) OnAccess(set int, a Access, hit bool) {
	if hit || !a.Type.IsDemand() {
		return
	}
	if d.leaderA[set] && d.psel < d.pselMax {
		d.psel++ // LRU-insertion team missed → favor BIP
	} else if d.leaderB[set] && d.psel > 0 {
		d.psel--
	}
}

// Victim implements Policy.
func (d *DIP) Victim(set int, a Access) int { return d.lru.Victim(set, a) }

// SetLeaders replaces the dueling leader sets. Drishti's dynamic sampled
// cache uses this to duel on the highest-capacity-demand sets instead of a
// static random selection (the Table 7 applicability of Enhancement II to
// memoryless set-dueling policies).
func (d *DIP) SetLeaders(teamLRU, teamBIP []int) {
	d.leaderA = make([]bool, d.sets)
	d.leaderB = make([]bool, d.sets)
	for _, s := range teamLRU {
		d.leaderA[s] = true
	}
	for _, s := range teamBIP {
		d.leaderB[s] = true
	}
}

// OnFill implements Policy: LRU insertion (MRU position) or bimodal
// insertion (stay LRU except 1-in-32), chosen per set-dueling outcome.
func (d *DIP) OnFill(set, way int, a Access) {
	useLRU := d.psel < d.pselMax/2
	if d.leaderA[set] {
		useLRU = true
	} else if d.leaderB[set] {
		useLRU = false
	}
	if useLRU {
		d.lru.OnFill(set, way, a)
		return
	}
	d.bipCtr++
	if d.bipCtr%32 == 0 {
		d.lru.OnFill(set, way, a)
		return
	}
	// Bimodal: leave the fill at the LRU position (evict next).
	d.lru.Demote(set, way)
}
