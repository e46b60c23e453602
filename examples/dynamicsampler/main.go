// Dynamicsampler: demonstrate Drishti's Enhancement II — the dynamic
// sampled cache (Section 4.2) — directly against the per-set miss skew that
// motivates it (Fig 5).
//
// The example runs an mcf-like mix (skewed per-set demand) and an lbm-like
// mix (uniform demand) and shows:
//   - the per-set MPKA distribution each produces,
//   - which sets the dynamic selector picks (top saturating counters), and
//   - the uniform-demand fallback firing for the streaming workload.
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	"drishti"
	"drishti/internal/sampler"
	"drishti/internal/sim"
)

func main() {
	const cores = 4
	for _, name := range []string{"605.mcf_s-1554B", "619.lbm_s-2676B"} {
		cfg := drishti.ScaledConfig(cores, 8)
		cfg.Instructions = 200_000
		cfg.Warmup = 50_000
		cfg.Policy = drishti.PolicySpec{Name: "mockingjay", Drishti: true}

		model, ok := drishti.ModelByName(name)
		if !ok {
			log.Fatalf("unknown model %s", name)
		}
		model = model.Scale(8, cfg.SetIndexBits())
		mix := drishti.Homogeneous(model, cores, 1)

		readers := make([]drishti.TraceReader, cores)
		for c := 0; c < cores; c++ {
			g, err := drishti.NewGenerator(mix.Models[c], mix.Seeds[c])
			if err != nil {
				log.Fatal(err)
			}
			readers[c] = g
		}
		sys, err := sim.New(cfg, readers)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := sys.RunContext(context.Background()); err != nil {
			log.Fatal(err)
		}

		fmt.Printf("== %s (%d cores, D-Mockingjay)\n", name, cores)
		slice := sys.Slices()[0]
		mpka := slice.MPKAPerSet()
		sorted := append([]float64(nil), mpka...)
		sort.Float64s(sorted)
		n := len(sorted)
		fmt.Printf("  slice-0 per-set MPKA: min=%.2f p50=%.2f max=%.2f\n",
			sorted[0], sorted[n/2], sorted[n-1])

		sel := sys.Built().Selectors[0].(*sampler.Dynamic)
		fmt.Printf("  dynamic selector: %d selections, %d uniform fallbacks\n",
			sel.Selections, sel.UniformFallbacks)
		fmt.Printf("  current sampled sets: %v\n", sel.SampledSets())

		// How hot are the selected sets relative to the median set?
		var selMPKA float64
		for _, s := range sel.SampledSets() {
			selMPKA += mpka[s]
		}
		selMPKA /= float64(len(sel.SampledSets()))
		fmt.Printf("  sampled sets' mean MPKA %.2f vs slice median %.2f\n\n", selMPKA, sorted[n/2])
	}
	fmt.Println("mcf-like: skewed demand → top-counter sets selected")
	fmt.Println("lbm-like: uniform demand detected → random fallback (Section 4.2)")
}
