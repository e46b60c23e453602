package policies

import (
	"testing"
	"testing/quick"

	"drishti/internal/mem"
	"drishti/internal/noc"
	"drishti/internal/repl"
	"drishti/internal/stats"
)

// TestAllPoliciesSurviveArbitraryAccessStreams is the cross-policy fuzz
// harness: every policy (base and Drishti variant), under every placement
// its spec implies, must produce in-range victims and never panic for an
// arbitrary interleaving of loads, stores, prefetches, writebacks, hits,
// fills, and evictions.
func TestAllPoliciesSurviveArbitraryAccessStreams(t *testing.T) {
	g := repl.Geometry{Slices: 2, Cores: 2, SetsPerSlice: 32, Ways: 4}
	var specs []Spec
	for _, name := range KnownPolicies() {
		specs = append(specs, Spec{Name: name})
		if (Spec{Name: name}).IsPredictorBased() || name == "dip" {
			specs = append(specs, Spec{Name: name, Drishti: true})
		}
	}
	for _, spec := range specs {
		spec := spec
		t.Run(spec.DisplayName(), func(t *testing.T) {
			b, err := Build(spec, g, noc.NewMesh(2, 4, 2), noc.NewStar(2, 3), stats.NewRand(1))
			if err != nil {
				t.Fatal(err)
			}
			check := func(ops []uint32) bool {
				for _, op := range ops {
					slice := int(op) % g.Slices
					set := int(op>>1) % g.SetsPerSlice
					way := int(op>>6) % g.Ways
					typ := mem.AccessType(op>>8) % 4
					a := repl.Access{
						PC:    uint64(op>>10)*4 + 0x400000,
						Block: uint64(op >> 3),
						Core:  int(op>>2) % g.Cores,
						Set:   set,
						Type:  typ,
					}
					p := b.PerSlice[slice]
					if obs, ok := p.(repl.Observer); ok {
						obs.OnAccess(set, a, op%3 == 0)
					}
					switch op % 4 {
					case 0:
						if v := p.Victim(set, a); v != repl.Bypass && (v < 0 || v >= g.Ways) {
							return false
						}
					case 1:
						p.OnFill(set, way, a)
					case 2:
						p.OnHit(set, way, a)
					default:
						p.OnEvict(set, way, a.Block, a.Cycle)
					}
				}
				return true
			}
			if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
				t.Fatal(err)
			}
		})
	}
}
