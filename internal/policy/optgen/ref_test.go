package optgen

import (
	"math/rand/v2"
	"testing"
)

// refSet is the map-based Set this package used before its history moved
// onto an oatable, kept as the reference: a map of heap entries and a
// full-map scan for the oldest one.
type refSet struct {
	entries map[uint64]*Entry
	occ     []uint8
	time    uint32
	ways    int
	maxEnt  int
}

func newRefSet(window, ways int) *refSet {
	s := &refSet{ways: ways}
	s.reset(window)
	return s
}

func (s *refSet) reset(window int) {
	s.entries = make(map[uint64]*Entry)
	s.occ = make([]uint8, window)
	s.time = 0
	s.maxEnt = window
}

func (s *refSet) optHit(last uint32) bool {
	window := uint32(len(s.occ))
	if s.time-last >= window {
		return false
	}
	for t := last; t != s.time; t++ {
		if int(s.occ[t%window]) >= s.ways {
			return false
		}
	}
	for t := last; t != s.time; t++ {
		s.occ[t%window]++
	}
	return true
}

func (s *refSet) insert(block uint64, e Entry) (evicted Entry, wasEvicted bool) {
	if len(s.entries) >= s.maxEnt {
		var (
			oldBlock uint64
			oldEnt   *Entry
		)
		for blk, ent := range s.entries {
			if oldEnt == nil || s.time-ent.TS > s.time-oldEnt.TS {
				oldBlock, oldEnt = blk, ent
			}
		}
		delete(s.entries, oldBlock)
		evicted, wasEvicted = *oldEnt, true
	}
	cp := e
	s.entries[block] = &cp
	return evicted, wasEvicted
}

func (s *refSet) advance() {
	s.occ[s.time%uint32(len(s.occ))] = 0
	s.time++
}

// TestSetMatchesReference drives Set and the map-based reference the way
// Hawkeye and Glider do — look the block up, train on OptHit and retouch
// it if found, else insert it (evicting the oldest entry when full), then
// advance — over random traces whose block space is a few times the
// history, so most inserts evict. Resets stand in for a sampled set's
// reselection flush. Every verdict, evicted entry and lookup must agree.
func TestSetMatchesReference(t *testing.T) {
	for _, tc := range []struct{ window, ways, blocks int }{
		{8, 2, 24}, {32, 4, 64}, {128, 16, 400},
	} {
		rng := rand.New(rand.NewPCG(uint64(tc.window), 1))
		got, want := NewSet(tc.window, tc.ways), newRefSet(tc.window, tc.ways)
		var evictions, hits int
		for i := 0; i < 100_000; i++ {
			if rng.IntN(5000) == 0 {
				got.Reset(tc.window)
				want.reset(tc.window)
			}
			block := uint64(rng.IntN(tc.blocks)) << 11 // one LLC set's blocks
			e := Entry{Sig: uint32(i), Core: uint16(i % 7), TS: got.Time(), Meta: uint64(i) * 3}
			ge, gok := got.Lookup(block)
			we, wok := want.entries[block]
			if gok != wok || (gok && *ge != *we) {
				t.Fatalf("%+v op %d: Lookup(%#x) = %v %v, reference %v %v", tc, i, block, ge, gok, we, wok)
			}
			if gok {
				gh, wh := got.OptHit(ge.TS), want.optHit(we.TS)
				if gh != wh {
					t.Fatalf("%+v op %d: OptHit = %v, reference %v", tc, i, gh, wh)
				}
				if gh {
					hits++
				}
				*ge, *we = e, e
			} else {
				gev, gwas := got.Insert(block, e)
				wev, wwas := want.insert(block, e)
				if gev != wev || gwas != wwas {
					t.Fatalf("%+v op %d: Insert evicted %+v %v, reference %+v %v", tc, i, gev, gwas, wev, wwas)
				}
				if gwas {
					evictions++
				}
			}
			got.Advance()
			want.advance()
			if got.entries.Len() != len(want.entries) {
				t.Fatalf("%+v op %d: %d entries, reference %d", tc, i, got.entries.Len(), len(want.entries))
			}
		}
		if evictions < 10_000 || hits < 1_000 {
			t.Fatalf("%+v: %d evictions, %d OPT hits: the trace missed a path", tc, evictions, hits)
		}
	}
}
