package repl

import "fmt"

// IPV implements insertion/promotion-vector replacement (Jiménez,
// MICRO'13): each set maintains an exact recency stack, and a static vector
// dictates (a) the stack position where fills are inserted and (b) the
// position a line at position p moves to when it hits. The genetic-searched
// vectors from the paper insert away from MRU and promote gradually, which
// buys scan resistance without any predictor state. IPV is a memoryless
// policy: Drishti's dynamic sampled cache can pick its dueling sets, but
// the per-core global predictor does not apply (Table 7's first row).
type IPV struct {
	sets, ways int
	// pos[set*ways+way] is the way's current recency-stack position
	// (0 = MRU, ways-1 = LRU).
	pos []uint8
	// insert is the stack position newly filled lines take.
	insert uint8
	// promote[p] is the new position for a line hitting at position p.
	promote []uint8
	// ctr drives the bimodal exception: 1-in-16 fills insert at MRU so a
	// long-lived line can bootstrap into the protected upper stack even
	// under a scan (the searched vectors encode the same escape hatch).
	ctr uint32
}

// NewIPV builds an IPV policy with a scan-resistant default vector:
// insertion near (but not at) the LRU end, promotion halfway toward MRU —
// the shape the MICRO'13 search consistently found.
func NewIPV(sets, ways int) *IPV {
	p := &IPV{sets: sets, ways: ways, pos: make([]uint8, sets*ways)}
	for s := 0; s < sets; s++ {
		for w := 0; w < ways; w++ {
			p.pos[s*ways+w] = uint8(w)
		}
	}
	p.insert = uint8(ways - ways/4 - 1)
	p.promote = make([]uint8, ways)
	for i := range p.promote {
		p.promote[i] = uint8(i / 2)
	}
	return p
}

// NewIPVWithVector builds an IPV policy with an explicit vector: promote[p]
// for hits at position p, and insert for fills. It panics on malformed
// vectors (this is a construction-time programming error).
func NewIPVWithVector(sets, ways int, promote []uint8, insert uint8) *IPV {
	if len(promote) != ways {
		panic(fmt.Sprintf("repl: IPV promotion vector has %d entries for %d ways", len(promote), ways))
	}
	for i, v := range promote {
		if int(v) >= ways || int(v) > i {
			panic(fmt.Sprintf("repl: IPV promotion %d→%d invalid (must move toward MRU, stay in range)", i, v))
		}
	}
	if int(insert) >= ways {
		panic("repl: IPV insertion position out of range")
	}
	p := NewIPV(sets, ways)
	copy(p.promote, promote)
	p.insert = insert
	return p
}

// Name implements Policy.
func (p *IPV) Name() string { return "ipv" }

// moveTo places way at stack position target, shifting lines between the
// way's old and new positions down by one.
func (p *IPV) moveTo(set, way int, target uint8) {
	base := set * p.ways
	old := p.pos[base+way]
	if old == target {
		return
	}
	if target > old {
		panic("repl: IPV demotion not supported")
	}
	for w := 0; w < p.ways; w++ {
		q := p.pos[base+w]
		if q >= target && q < old {
			p.pos[base+w] = q + 1
		}
	}
	p.pos[base+way] = target
}

// OnHit implements Policy.
func (p *IPV) OnHit(set, way int, _ Access) {
	p.moveTo(set, way, p.promote[p.pos[set*p.ways+way]])
}

// OnFill implements Policy.
func (p *IPV) OnFill(set, way int, _ Access) {
	ins := p.insert
	p.ctr++
	if p.ctr%16 == 0 {
		ins = 0
	}
	// The victim occupied the LRU position; first push it conceptually
	// out, then insert at the vector's position.
	base := set * p.ways
	old := p.pos[base+way]
	for w := 0; w < p.ways; w++ {
		q := p.pos[base+w]
		if q >= ins && q < old {
			p.pos[base+w] = q + 1
		}
	}
	p.pos[base+way] = ins
}

// OnEvict implements Policy.
func (p *IPV) OnEvict(int, int, uint64, uint64) {}

// Victim implements Policy: the line at the LRU stack position.
func (p *IPV) Victim(set int, _ Access) int {
	base := set * p.ways
	for w := 0; w < p.ways; w++ {
		if int(p.pos[base+w]) == p.ways-1 {
			return w
		}
	}
	// Unreachable for a well-formed stack; fall back defensively.
	return 0
}
