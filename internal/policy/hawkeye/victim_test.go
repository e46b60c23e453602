package hawkeye

import (
	"math/rand/v2"
	"testing"

	"drishti/internal/fabric"
	"drishti/internal/repl"
)

// refVictim is the scan Victim replaced: return the first way at rrpvMax
// as soon as it is seen, else the first way holding the largest RRPV.
func refVictim(p *Slice, set int) int {
	base := set * p.shared.g.Ways
	maxW, maxV := 0, p.rrpv[base]
	for w := 0; w < p.shared.g.Ways; w++ {
		v := p.rrpv[base+w]
		if v == rrpvMax {
			return w
		}
		if v > maxV {
			maxW, maxV = w, v
		}
	}
	return maxW
}

// TestVictimMatchesReference fills rows with random RRPVs, some with an
// averse line (the reference's early exit) and many with repeated values
// (the lowest-way tie-break), and compares Victim with the reference.
func TestVictimMatchesReference(t *testing.T) {
	for _, ways := range []int{1, 2, 4, 11, 16} {
		_, ps, _ := build(t, fabric.Local, 4, ways, 1)
		p := ps[0]
		rng := rand.New(rand.NewPCG(uint64(ways), 3))
		early, picked := 0, make([]bool, ways)
		for i := 0; i < 20_000; i++ {
			set := rng.IntN(4)
			top := uint8(rng.IntN(rrpvMax + 1)) // row values are 0…top
			for w := 0; w < ways; w++ {
				p.rrpv[p.idx(set, w)] = uint8(rng.IntN(int(top) + 1))
			}
			want := refVictim(p, set)
			if got := p.Victim(set, repl.Access{}); got != want {
				t.Fatalf("ways=%d row %v: victim %d, reference %d",
					ways, p.rrpv[p.idx(set, 0):p.idx(set, ways)], got, want)
			}
			if p.rrpv[p.idx(set, want)] == rrpvMax {
				early++
			}
			picked[want] = true
		}
		if early == 0 {
			t.Fatalf("ways=%d: no row held an averse line", ways)
		}
		for w, ok := range picked {
			if !ok {
				t.Fatalf("ways=%d: way %d was never the victim", ways, w)
			}
		}
	}
}
