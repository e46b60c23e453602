package mockingjay

import (
	"math/rand/v2"
	"testing"

	"drishti/internal/fabric"
	"drishti/internal/mem"
	"drishti/internal/repl"
)

// BenchmarkSliceOnAccess measures one sampled-cache access (ETR aging plus
// reuse tracking) on a 64-set, 16-way slice whose every set is sampled.
// Each set sees 4× as many distinct blocks as its 128-line sampled set
// holds, so most new blocks evict the oldest line and train its PC as INF.
func BenchmarkSliceOnAccess(b *testing.B) {
	const sets, ways = 64, 16
	_, ps := build(b, fabric.Local, sets, ways, 1)
	p := ps[0]
	rng := rand.New(rand.NewPCG(1, 2))
	accs := make([]repl.Access, 1<<14)
	for i := range accs {
		set := rng.IntN(sets)
		block := uint64(rng.IntN(4*8*ways))*sets + uint64(set)
		accs[i] = repl.Access{PC: uint64(rng.IntN(64)), Block: block, Set: set, Type: mem.Load}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := accs[i&(len(accs)-1)]
		p.OnAccess(a.Set, a, false)
	}
}
