package repl

import (
	"testing"
	"testing/quick"

	"drishti/internal/mem"
)

func TestEVAInitialRankIsLRULike(t *testing.T) {
	e := NewEVA(2, 4)
	// Age way 0 heavily; it should be the victim before any learning.
	for i := 0; i < 100; i++ {
		e.OnAccess(0, Access{}, false)
	}
	e.OnHit(0, 1, Access{})
	e.OnHit(0, 2, Access{})
	e.OnHit(0, 3, Access{})
	if v := e.Victim(0, Access{}); v != 0 {
		t.Fatalf("victim %d, want the oldest way", v)
	}
}

func TestEVAReclassifies(t *testing.T) {
	e := NewEVA(4, 2)
	e.period = 64
	// Lines that hit do so young; old lines only ever get evicted.
	for i := 0; i < 200; i++ {
		e.OnFill(0, 0, Access{})
		e.OnHit(0, 0, Access{}) // young hit
		for k := 0; k < 80; k++ {
			e.OnAccess(1, Access{}, false) // age set 1
		}
		e.OnEvict(1, 0, 0, 0) // ancient eviction
		e.OnFill(1, 0, Access{})
	}
	// Young classes must now outrank ancient ones.
	if e.rank[0] <= e.rank[numAgeClasses-1] {
		t.Fatalf("rank[young]=%v rank[ancient]=%v", e.rank[0], e.rank[numAgeClasses-1])
	}
}

func TestEVAVictimInRangeProperty(t *testing.T) {
	check := func(ops []uint16) bool {
		e := NewEVA(4, 4)
		e.period = 32
		for _, op := range ops {
			set, way := int(op)%4, int(op>>2)%4
			switch op % 4 {
			case 0:
				e.OnFill(set, way, Access{})
			case 1:
				e.OnHit(set, way, Access{})
			case 2:
				e.OnEvict(set, way, 0, 0)
			default:
				e.OnAccess(set, Access{}, false)
			}
		}
		for s := 0; s < 4; s++ {
			if v := e.Victim(s, Access{}); v < 0 || v >= 4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestIPVStackInvariant(t *testing.T) {
	p := NewIPV(2, 8)
	// After arbitrary hits/fills the positions must stay a permutation.
	checkPerm := func() {
		seen := make([]bool, 8)
		for w := 0; w < 8; w++ {
			q := p.pos[w]
			if int(q) >= 8 || seen[q] {
				t.Fatalf("stack corrupted: %v", p.pos[:8])
			}
			seen[q] = true
		}
	}
	for i := 0; i < 1000; i++ {
		switch i % 3 {
		case 0:
			p.OnHit(0, i%8, Access{})
		case 1:
			v := p.Victim(0, Access{})
			p.OnFill(0, v, Access{})
		default:
			p.OnHit(0, (i*5)%8, Access{})
		}
		checkPerm()
	}
}

func TestIPVInsertNotMRU(t *testing.T) {
	p := NewIPV(1, 8)
	v := p.Victim(0, Access{})
	p.OnFill(0, v, Access{})
	if p.pos[v] == 0 {
		t.Fatal("IPV inserted at MRU; scan resistance lost")
	}
	if int(p.pos[v]) == 7 {
		t.Fatal("IPV inserted at LRU; fills would thrash")
	}
}

func TestIPVGradualPromotion(t *testing.T) {
	p := NewIPV(1, 8)
	// A line deep in the stack must take several hits to reach MRU.
	way := p.Victim(0, Access{})
	p.OnFill(0, way, Access{})
	hops := 0
	for p.pos[way] != 0 {
		p.OnHit(0, way, Access{})
		hops++
		if hops > 8 {
			t.Fatal("promotion does not converge")
		}
	}
	if hops < 2 {
		t.Fatalf("promotion reached MRU in %d hop(s); want gradual", hops)
	}
}

func TestIPVVictimIsLRUPosition(t *testing.T) {
	p := NewIPV(1, 4)
	v := p.Victim(0, Access{})
	if int(p.pos[v]) != 3 {
		t.Fatalf("victim at stack position %d", p.pos[v])
	}
}

func TestIPVWithVectorValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("malformed vector accepted")
		}
	}()
	NewIPVWithVector(2, 4, []uint8{0, 0, 3, 1}, 2) // promote[2]=3 demotes
}

func TestEVAName(t *testing.T) {
	if NewEVA(2, 2).Name() != "eva" || NewIPV(2, 2).Name() != "ipv" {
		t.Fatal("names changed")
	}
}

func TestIPVScanResistance(t *testing.T) {
	// A working set of 4 hot lines + endless scan: IPV must keep more hot
	// lines than plain LRU would.
	ways := 8
	p := NewIPV(1, ways)
	lru := NewLRU(1, ways)
	// Simulate tag arrays manually for both.
	type ca struct {
		tags []uint64
		pol  Policy
	}
	run := func(c *ca) int {
		hits := 0
		for round := 0; round < 200; round++ {
			for _, tag := range []uint64{1, 2, 3, 4} { // hot set
				hitWay := -1
				for w, tg := range c.tags {
					if tg == tag {
						hitWay = w
						break
					}
				}
				if hitWay >= 0 {
					hits++
					c.pol.OnHit(0, hitWay, Access{})
				} else {
					v := c.pol.Victim(0, Access{})
					c.pol.OnEvict(0, v, c.tags[v], 0)
					c.tags[v] = tag
					c.pol.OnFill(0, v, Access{})
				}
			}
			for s := 0; s < 6; s++ { // scan
				tag := uint64(1000 + round*6 + s)
				v := c.pol.Victim(0, Access{})
				c.pol.OnEvict(0, v, c.tags[v], 0)
				c.tags[v] = tag
				c.pol.OnFill(0, v, Access{})
			}
		}
		return hits
	}
	hitsIPV := run(&ca{tags: make([]uint64, ways), pol: p})
	hitsLRU := run(&ca{tags: make([]uint64, ways), pol: lru})
	if hitsIPV <= hitsLRU {
		t.Fatalf("IPV hits %d ≤ LRU hits %d under scan", hitsIPV, hitsLRU)
	}
	_ = mem.Load
}
