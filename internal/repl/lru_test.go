package repl

import (
	"math"
	"math/rand/v2"
	"testing"

	"drishti/internal/mem"
)

// refLRU is the reference LRU: one cache-global 64-bit clock and a 64-bit
// stamp per line, so stamps never wrap and never need renumbering. The
// compact LRU must pick the same victim after every operation.
type refLRU struct {
	ways   int
	stamps []uint64
	clock  uint64
}

func newRefLRU(sets, ways int) *refLRU {
	return &refLRU{ways: ways, stamps: make([]uint64, sets*ways)}
}

func (l *refLRU) touch(set, way int) {
	l.clock++
	l.stamps[set*l.ways+way] = l.clock
}

func (l *refLRU) demote(set, way int) { l.stamps[set*l.ways+way] = 0 }

func (l *refLRU) victim(set int) int {
	row := l.stamps[set*l.ways : set*l.ways+l.ways]
	best, bestStamp := 0, row[0]
	for w := 1; w < len(row); w++ {
		if row[w] < bestStamp {
			best, bestStamp = w, row[w]
		}
	}
	return best
}

// TestLRUMatchesReference drives the compact LRU and the reference with
// the same random hits, fills and stamp-0 demotions (DIP's bimodal
// insert) and compares Victim after every operation. Half the operations
// land on one hot set, well over 3×65535 touches, so its 16-bit counter
// renumbers repeatedly.
func TestLRUMatchesReference(t *testing.T) {
	const sets, ops = 8, 600_000
	for _, ways := range []int{1, 2, 8, 12, 16} {
		rng := rand.New(rand.NewPCG(uint64(ways), 7))
		got, want := NewLRU(sets, ways), newRefLRU(sets, ways)
		renumbers := 0
		for i := 0; i < ops; i++ {
			set := 0 // the hot set
			if i%2 == 1 {
				set = rng.IntN(sets)
			}
			way := rng.IntN(ways)
			before := got.stamps[set*got.stride]
			switch r := rng.IntN(16); {
			case r == 0:
				got.Demote(set, way)
				want.demote(set, way)
			case r < 8:
				got.OnHit(set, way, Access{})
				want.touch(set, way)
			default:
				got.OnFill(set, way, Access{})
				want.touch(set, way)
			}
			if after := got.stamps[set*got.stride]; after < before {
				renumbers++
			}
			if g, w := got.Victim(set, Access{}), want.victim(set); g != w {
				t.Fatalf("ways=%d op %d set %d: victim %d, reference %d", ways, i, set, g, w)
			}
		}
		for set := 0; set < sets; set++ {
			if g, w := got.Victim(set, Access{}), want.victim(set); g != w {
				t.Fatalf("ways=%d final set %d: victim %d, reference %d", ways, set, g, w)
			}
		}
		if renumbers < 3 {
			t.Fatalf("ways=%d: the hot set renumbered %d times, want ≥ 3", ways, renumbers)
		}
	}
}

// TestLRURenumberKeepsOrder checks a renumbered row directly: the nonzero
// stamps become 1…k in their old order, zeros stay zero, and the counter
// restarts at k.
func TestLRURenumberKeepsOrder(t *testing.T) {
	l := NewLRU(1, 4)
	copy(l.stamps, []uint16{math.MaxUint16, 900, 0, math.MaxUint16, 7})
	l.OnHit(0, 2, Access{})
	want := []uint16{4, 2, 0, 4, 1}
	for i, w := range want {
		if l.stamps[i] != w {
			t.Fatalf("row after renumber = %v, want %v", l.stamps, want)
		}
	}
}

// refDIP is DIP over the reference LRU, with the same dueling logic.
type refDIP struct {
	lru              *refLRU
	leaderA, leaderB []bool
	psel, pselMax    int32
	bipCtr           uint32
}

func (d *refDIP) onAccess(set int, a Access, hit bool) {
	if hit || !a.Type.IsDemand() {
		return
	}
	if d.leaderA[set] && d.psel < d.pselMax {
		d.psel++
	} else if d.leaderB[set] && d.psel > 0 {
		d.psel--
	}
}

func (d *refDIP) onFill(set, way int) {
	useLRU := d.psel < d.pselMax/2
	if d.leaderA[set] {
		useLRU = true
	} else if d.leaderB[set] {
		useLRU = false
	}
	if useLRU {
		d.lru.touch(set, way)
		return
	}
	d.bipCtr++
	if d.bipCtr%32 == 0 {
		d.lru.touch(set, way)
		return
	}
	d.lru.demote(set, way)
}

// TestDIPMatchesReference runs DIP and its reference through the same
// leader-set misses (which swing PSEL between LRU and bimodal insertion),
// fills and hits, comparing Victim after every operation.
func TestDIPMatchesReference(t *testing.T) {
	const sets, ways, ops = 64, 16, 400_000
	got := NewDIP(sets, ways, 1)
	want := &refDIP{
		lru:     newRefLRU(sets, ways),
		leaderA: append([]bool(nil), got.leaderA...),
		leaderB: append([]bool(nil), got.leaderB...),
		psel:    got.psel,
		pselMax: got.pselMax,
	}
	follower := -1 // its insertion mode tracks PSEL
	for s := 0; s < sets && follower < 0; s++ {
		if !got.leaderA[s] && !got.leaderB[s] {
			follower = s
		}
	}
	rng := rand.New(rand.NewPCG(3, 5))
	load := Access{Type: mem.Load}
	var followerFills [2]int // by mode: [0] bimodal, [1] LRU insertion
	for i := 0; i < ops; i++ {
		set := rng.IntN(sets)
		if i%2 == 0 {
			set = follower
		}
		way := rng.IntN(ways)
		// Alternate 50k-op phases in which only one team's leaders miss,
		// so PSEL swings across its midpoint in both directions.
		missLeader := want.leaderB
		if (i/50_000)%2 == 1 {
			missLeader = want.leaderA
		}
		switch r := rng.IntN(4); {
		case r == 0:
			hit := !missLeader[set]
			got.OnAccess(set, load, hit)
			want.onAccess(set, load, hit)
		case r == 1:
			got.OnHit(set, way, load)
			want.lru.touch(set, way)
		default:
			if set == follower && want.psel < want.pselMax/2 {
				followerFills[1]++
			} else if set == follower {
				followerFills[0]++
			}
			got.OnFill(set, way, load)
			want.onFill(set, way)
		}
		if got.psel != want.psel {
			t.Fatalf("op %d: PSEL %d, reference %d", i, got.psel, want.psel)
		}
		if g, w := got.Victim(set, load), want.lru.victim(set); g != w {
			t.Fatalf("op %d set %d: victim %d, reference %d", i, set, g, w)
		}
	}
	if followerFills[0] == 0 || followerFills[1] == 0 {
		t.Fatalf("follower fills by mode (bimodal, LRU) = %v: PSEL never crossed its midpoint both ways", followerFills)
	}
}

// lruSink keeps BenchmarkLRU's victims live.
var lruSink int

// BenchmarkLRU measures one touch plus one victim selection on a 256-set,
// 16-way array, over a fixed pseudo-random sequence of (set, way) pairs.
func BenchmarkLRU(b *testing.B) {
	const sets, ways = 256, 16
	l := NewLRU(sets, ways)
	rng := rand.New(rand.NewPCG(1, 2))
	pairs := make([][2]int, 4096)
	for i := range pairs {
		pairs[i] = [2]int{rng.IntN(sets), rng.IntN(ways)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i&(len(pairs)-1)]
		l.OnHit(p[0], p[1], Access{})
		lruSink += l.Victim(p[0], Access{})
	}
}
