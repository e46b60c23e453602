// Package chrome implements a CHROME-lite online reinforcement-learning
// replacement policy (after Lu et al., HPCA'24): a tabular SARSA agent
// chooses the insertion priority (or bypass) for each fill from a state
// built from the fill's PC signature and the set's pressure, and is
// rewarded by subsequent hits and punished by dead evictions.
//
// The published CHROME adds concurrency (pure-miss) features; this lite
// version keeps the PC/set-pressure state space, which is the part Drishti
// interacts with: the Q-table is a PC-indexed structure banked through a
// fabric.Fabric, and experience comes from sampled sets via a
// sampler.SetSelector, so D-CHROME is the same code re-wired (Table 8).
package chrome

import (
	"drishti/internal/fabric"
	"drishti/internal/mem"
	"drishti/internal/repl"
	"drishti/internal/sampler"
	"drishti/internal/stats"
)

// Table and learning sizes.
const (
	// PCBuckets is the PC-signature states per Q-table bank: 1024
	// buckets × 4 pressure levels × 4 actions of 16-bit Q, 32 KB.
	PCBuckets = 1024
	// Epsilon sets exploration: one fill in Epsilon takes a random action.
	Epsilon = 64
	// LearnShift sets the learning rate, 1/2^LearnShift.
	LearnShift = 3
)

// Actions the agent can take on a fill.
const (
	actInsertMRU = iota
	actInsertMid
	actInsertLRU
	actBypass
	numActions
)

// pressure buckets: how full of recently-used lines the set is.
const numPressure = 4

// qValue is fixed-point Q (<<8).
type qValue int32

const (
	rewardHit         = 256  // +1.0
	rewardDead        = -256 // -1.0
	rewardBypassSaved = 64   // small reward for a bypass later proven right
)

// Shared holds the banked Q-tables.
type Shared struct {
	g   repl.Geometry
	fab *fabric.Fabric
	// bank × (pcBucket × pressure) × action
	q   [][]([numActions]qValue)
	rnd *stats.Rand
}

// NewShared allocates Q-table banks.
func NewShared(g repl.Geometry, fab *fabric.Fabric, rnd *stats.Rand) *Shared {
	s := &Shared{g: g, fab: fab, rnd: rnd}
	states := PCBuckets * numPressure
	s.q = make([][]([numActions]qValue), fab.NumBanks())
	for i := range s.q {
		s.q[i] = make([]([numActions]qValue), states)
	}
	return s
}

func (s *Shared) state(pc uint64, core, pressure int) uint32 {
	h := pc*0x9e3779b97f4a7c15 ^ uint64(core)*0xd6e8feb86659fd93
	h ^= h >> 33
	bucket := uint32(h) & (PCBuckets - 1)
	return bucket*numPressure + uint32(pressure)
}

// choose picks an action ε-greedily from the bank serving (slice, core).
func (s *Shared) choose(slice int, a repl.Access, state uint32) (action int, lat uint32) {
	b, lat := s.fab.PredictBank(slice, a.Core, a.Cycle)
	if s.rnd.Intn(Epsilon) == 0 {
		return s.rnd.Intn(numActions), lat
	}
	q := &s.q[b][state]
	best, bestQ := 0, q[0]
	for i := 1; i < numActions; i++ {
		if q[i] > bestQ {
			best, bestQ = i, q[i]
		}
	}
	return best, lat
}

// learn applies a reward to (state, action) in every bank the fabric
// routes this experience to.
func (s *Shared) learn(slice int, a repl.Access, state uint32, action int, reward int32) {
	for _, b := range s.fab.TrainBanks(slice, a.Core, a.Cycle) {
		q := &s.q[b][state]
		q[action] += qValue((reward - int32(q[action])) >> LearnShift)
	}
}

// lineState remembers the experience that inserted each line.
type lineState struct {
	state   uint32
	action  int
	core    uint16
	reused  bool
	sampled bool
}

// Slice is the CHROME instance for one LLC slice.
type Slice struct {
	shared  *Shared
	sliceID int
	sel     sampler.SetSelector

	rrpv    []uint8
	lines   []lineState
	penalty uint32

	// pending caches the action chosen during victim selection so OnFill
	// reuses it (one Q-table access per fill).
	pendingState  uint32
	pendingAction int
	pendingValid  bool
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
		p.rrpv[i] = 3
	}
	return p
}

// Name implements repl.Policy.
func (p *Slice) Name() string { return "chrome" }

// FillPenalty implements repl.FillLatencier.
func (p *Slice) FillPenalty() uint32 { return p.penalty }

func (p *Slice) idx(set, way int) int { return set*p.shared.g.Ways + way }

// pressure buckets the set's recently-reused occupancy into [0,numPressure).
func (p *Slice) pressure(set int) int {
	base := set * p.shared.g.Ways
	hot := 0
	for w := 0; w < p.shared.g.Ways; w++ {
		if p.rrpv[base+w] == 0 {
			hot++
		}
	}
	return hot * (numPressure - 1) / p.shared.g.Ways
}

// OnAccess implements repl.Observer.
func (p *Slice) OnAccess(set int, a repl.Access, hit bool) {
	if a.Type.IsDemand() {
		p.sel.OnAccess(set, hit)
	}
}

// OnHit implements repl.Policy: reward the action that kept this line.
func (p *Slice) OnHit(set, way int, a repl.Access) {
	if a.Type == mem.Writeback {
		return
	}
	i := p.idx(set, way)
	p.rrpv[i] = 0
	ln := &p.lines[i]
	if ln.sampled && !ln.reused {
		ln.reused = true
		p.shared.learn(p.sliceID, a, ln.state, ln.action, rewardHit)
	}
}

// Victim implements repl.Policy: RRIP search; the agent decides bypass.
func (p *Slice) Victim(set int, a repl.Access) int {
	if a.Type.IsDemand() || a.Type == mem.Prefetch {
		st := p.shared.state(a.PC, a.Core, p.pressure(set))
		action, lat := p.shared.choose(p.sliceID, a, st)
		p.penalty = lat
		p.pendingState, p.pendingAction, p.pendingValid = st, action, true
		if action == actBypass {
			// Bypass learning: mildly positive — DRAM pressure avoided —
			// unless contradicted by later reuse, which sampled training
			// cannot see after a bypass; keep the reward small.
			if _, sampled := p.sel.IsSampled(set); sampled {
				p.shared.learn(p.sliceID, a, st, action, rewardBypassSaved)
			}
			return repl.Bypass
		}
	}
	base := set * p.shared.g.Ways
	for {
		for w := 0; w < p.shared.g.Ways; w++ {
			if p.rrpv[base+w] >= 3 {
				return w
			}
		}
		for w := 0; w < p.shared.g.Ways; w++ {
			p.rrpv[base+w]++
		}
	}
}

// OnEvict implements repl.Policy: dead lines punish their insertion action.
func (p *Slice) OnEvict(set, way int, _, cycle uint64) {
	i := p.idx(set, way)
	ln := &p.lines[i]
	if ln.sampled && !ln.reused {
		a := repl.Access{Core: int(ln.core), Cycle: cycle}
		p.shared.learn(p.sliceID, a, ln.state, ln.action, rewardDead)
	}
	ln.sampled = false
}

// OnFill implements repl.Policy: place per the chosen action.
func (p *Slice) OnFill(set, way int, a repl.Access) {
	i := p.idx(set, way)
	if a.Type == mem.Writeback {
		p.rrpv[i] = 3
		p.lines[i] = lineState{}
		p.penalty = 0
		return
	}
	st, action := p.pendingState, p.pendingAction
	if !p.pendingValid {
		st = p.shared.state(a.PC, a.Core, p.pressure(set))
		var lat uint32
		action, lat = p.shared.choose(p.sliceID, a, st)
		p.penalty = lat
	}
	p.pendingValid = false
	_, sampled := p.sel.IsSampled(set)
	p.lines[i] = lineState{state: st, action: action, core: uint16(a.Core), sampled: sampled}
	switch action {
	case actInsertMRU:
		p.rrpv[i] = 0
	case actInsertMid:
		p.rrpv[i] = 2
	default:
		p.rrpv[i] = 3
	}
}

// Budget reports per-core storage in bytes.
func Budget(g repl.Geometry, dynamic bool) map[string]int {
	out := map[string]int{
		"q-table":       PCBuckets * numPressure * numActions * 2, // 16-bit Q
		"rrpv":          g.Lines() * 2 / 8,
		"line-metadata": g.Lines() * 3,
	}
	if dynamic {
		out["saturating-counters"] = g.SetsPerSlice
	}
	return out
}
