package repl

import (
	"math/rand/v2"
	"slices"
	"testing"
)

// refSRRIPVictim is the textbook SRRIP victim search over one set's rrpv
// row: take the first way at rrpvMax, else age every way by one and look
// again. The packed-key Victim must pick the same way and leave the same
// row behind.
func refSRRIPVictim(row []uint8) int {
	for {
		for w, v := range row {
			if v == rrpvMax {
				return w
			}
		}
		for w := range row {
			row[w]++
		}
	}
}

// TestSRRIPMatchesReference drives SRRIP and BRRIP with random hits, fills,
// evictions and victim searches, and checks every Victim's choice and the
// aged row against the reference search on a copy of the row.
func TestSRRIPMatchesReference(t *testing.T) {
	const sets, ops = 8, 200_000
	for _, ways := range []int{1, 2, 4, 12, 16} {
		for _, bimodal := range []bool{false, true} {
			rng := rand.New(rand.NewPCG(uint64(ways), 11))
			s := NewSRRIP(sets, ways)
			var pol Policy = s
			if bimodal {
				b := NewBRRIP(sets, ways)
				s, pol = &b.SRRIP, b
			}
			victims, aged := make([]int, ways), 0
			for i := 0; i < ops; i++ {
				set, way := rng.IntN(sets), rng.IntN(ways)
				switch r := rng.IntN(8); {
				case r < 3:
					pol.OnHit(set, way, Access{})
				case r < 5:
					pol.OnFill(set, way, Access{})
				case r == 5:
					pol.OnEvict(set, way, 0, 0)
				default:
					row := s.rrpv[set*ways : (set+1)*ways]
					want := slices.Clone(row)
					wantWay := refSRRIPVictim(want)
					if want[wantWay] != row[wantWay] {
						aged++
					}
					if got := pol.Victim(set, Access{}); got != wantWay || !slices.Equal(row, want) {
						t.Fatalf("ways=%d bimodal=%v op %d: victim %d row %v, reference %d row %v",
							ways, bimodal, i, got, row, wantWay, want)
					}
					victims[wantWay]++
				}
			}
			// Victims must spread over the ways, so the tie-break to the
			// lowest way is exercised away from way 0, and some searches
			// must age the row.
			picked := 0
			for _, n := range victims {
				if n > 0 {
					picked++
				}
			}
			if 2*picked < ways {
				t.Fatalf("ways=%d bimodal=%v: only %d ways were ever the victim", ways, bimodal, picked)
			}
			if aged == 0 {
				t.Fatalf("ways=%d bimodal=%v: no victim search aged its row", ways, bimodal)
			}
		}
	}
}

// srripSink keeps BenchmarkSRRIP's victims live.
var srripSink int

// BenchmarkSRRIP measures one hit, one fill and one victim selection (with
// its aging pass) on a 256-set, 16-way array, over a fixed pseudo-random
// sequence of (set, way) pairs.
func BenchmarkSRRIP(b *testing.B) {
	const sets, ways = 256, 16
	s := NewSRRIP(sets, ways)
	rng := rand.New(rand.NewPCG(1, 2))
	pairs := make([][2]int, 4096)
	for i := range pairs {
		pairs[i] = [2]int{rng.IntN(sets), rng.IntN(ways)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i&(len(pairs)-1)]
		s.OnHit(p[0], p[1], Access{})
		v := s.Victim(p[0], Access{})
		s.OnFill(p[0], v, Access{})
		srripSink += v
	}
}
