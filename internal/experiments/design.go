package experiments

import (
	"fmt"
	"io"
	"sort"

	"drishti/internal/fabric"
	"drishti/internal/noc"
	"drishti/internal/policies"
	"drishti/internal/repl"
	"drishti/internal/stats"
)

// Fig10PredictorAPKI reproduces Fig 10: accesses per kilo instruction to a
// centralized reuse predictor vs Drishti's per-core global predictors, for
// Mockingjay on 4/16/32 cores. Both training and prediction lookups count.
func Fig10PredictorAPKI(p Params, w io.Writer) error {
	header(w, "fig10", "predictor APKI: centralized vs per-core-global", p)
	for _, cores := range []int{4, 16, 32} {
		cfg := p.config(cores)
		mixes := p.paperMixes(cfg, cores)
		var centMax, centAvg, pcgMax, pcgAvg []float64
		for _, mix := range mixes {
			for _, place := range []fabric.Placement{fabric.Centralized, fabric.PerCoreGlobal} {
				c := cfg
				c.Policy = policies.Spec{
					Name:             "mockingjay",
					Placement:        policies.PlacementPtr(place),
					FixedPredLatency: 1, // isolate traffic from timing effects
				}
				res, err := runMixCached(p.ctx(), c, mix)
				if err != nil {
					return err
				}
				maxB, avgB := bankAPKI(res.BankAPKI)
				if place == fabric.Centralized {
					centMax = append(centMax, maxB)
					centAvg = append(centAvg, avgB)
				} else {
					pcgMax = append(pcgMax, maxB)
					pcgAvg = append(pcgAvg, avgB)
				}
			}
		}
		fmt.Fprintf(w, "%2d cores  centralized: avg=%.2f max=%.2f APKI   per-core-global: avg=%.2f max=%.2f APKI\n",
			cores, stats.Mean(centAvg), maxOf(centMax), stats.Mean(pcgAvg), maxOf(pcgMax))
	}
	fmt.Fprintln(w, "paper shape (32 cores): centralized >65 avg (max 257.76); per-core 2.46 avg (max 8.05)")
	return nil
}

func bankAPKI(apki []float64) (max, avg float64) {
	if len(apki) == 0 {
		return 0, 0
	}
	var sum float64
	for _, v := range apki {
		sum += v
		if v > max {
			max = v
		}
	}
	return max, sum / float64(len(apki))
}

func maxOf(xs []float64) float64 {
	var m float64
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// Fig11aNoNocstar reproduces Fig 11a: the slowdown of D-Mockingjay when the
// per-core global predictor is reached over the existing mesh instead of
// NOCSTAR, relative to baseline Mockingjay, on 4/16/32 cores.
func Fig11aNoNocstar(p Params, w io.Writer) error {
	header(w, "fig11a", "D-Mockingjay without a low-latency interconnect", p)
	specs := []policies.Spec{
		{Name: "mockingjay"},
		{Name: "mockingjay", Drishti: true, UseNocstar: policies.BoolPtr(false)}, // mesh-routed
		{Name: "mockingjay", Drishti: true},                                      // NOCSTAR
	}
	for _, cores := range []int{4, 16, 32} {
		cfg := p.config(cores)
		mixes := p.paperMixes(cfg, cores)
		sr, err := runSweepCached(cfg, mixes, specs, p)
		if err != nil {
			return err
		}
		base := sr.geoNormWS(0)
		mesh := sr.geoNormWS(1)
		star := sr.geoNormWS(2)
		fmt.Fprintf(w, "%2d cores  mockingjay=%.4f  d-mockingjay/mesh=%.4f (%+.1f%% vs base)  d-mockingjay/nocstar=%.4f (%+.1f%%)\n",
			cores, base, mesh, (mesh/base-1)*100, star, (star/base-1)*100)
	}
	fmt.Fprintln(w, "paper shape: mesh-routed D-Mockingjay is SLOWER than Mockingjay (−2.8% @4, −5.5% @16, −9% @32)")
	return nil
}

// Fig11bLatencySweep reproduces Fig 11b: normalized performance of
// D-Mockingjay on 32 cores as the slice→predictor latency varies.
func Fig11bLatencySweep(p Params, w io.Writer) error {
	header(w, "fig11b", "predictor-interconnect latency sensitivity (32 cores)", p)
	const cores = 32
	cfg := p.config(cores)
	mixes := p.paperMixes(cfg, cores)
	specs := []policies.Spec{{Name: "mockingjay"}}
	latencies := []uint32{1, 3, 5, 10, 15, 20, 30}
	for _, lat := range latencies {
		specs = append(specs, policies.Spec{Name: "mockingjay", Drishti: true, FixedPredLatency: lat})
	}
	sr, err := runSweepCached(cfg, mixes, specs, p)
	if err != nil {
		return err
	}
	base := sr.geoNormWS(0)
	fmt.Fprintf(w, "mockingjay baseline normWS=%.4f\n", base)
	for i, lat := range latencies {
		v := sr.geoNormWS(i + 1)
		fmt.Fprintf(w, "pred-latency=%2d cycles  d-mockingjay normWS=%.4f (%+.1f%% vs mockingjay)\n",
			lat, v, (v/base-1)*100)
	}
	fmt.Fprintln(w, "paper shape: <5 cycles ≈ no loss; ≈20 cycles erases the gains")
	return nil
}

// Tab03Budget reproduces Table 3: per-core storage with and without Drishti
// for Hawkeye and Mockingjay on the full-size 2 MB/16-way slice.
func Tab03Budget(p Params, w io.Writer) error {
	header(w, "tab03", "per-core hardware budget (full-size 2 MB slice)", p)
	g := repl.Geometry{Slices: 32, Cores: 32, SetsPerSlice: 2048, Ways: 16}
	mesh := noc.NewMesh(32, 4, 2)
	star := noc.NewStar(32, noc.DefaultStarLatency)
	for _, spec := range []policies.Spec{
		{Name: "hawkeye"},
		{Name: "hawkeye", Drishti: true},
		{Name: "mockingjay"},
		{Name: "mockingjay", Drishti: true},
	} {
		b, err := policies.Build(spec, g, mesh, star, stats.NewRand(1))
		if err != nil {
			return err
		}
		var total int
		keys := make([]string, 0, len(b.Budget))
		for k := range b.Budget {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(w, "%-14s", spec.DisplayName())
		for _, k := range keys {
			fmt.Fprintf(w, "  %s=%.2fKB", k, float64(b.Budget[k])/1024)
			total += b.Budget[k]
		}
		fmt.Fprintf(w, "  TOTAL=%.2fKB\n", float64(total)/1024)
	}
	fmt.Fprintln(w, "paper: hawkeye 28→20.75 KB, mockingjay 31.91→28.95 KB per core")
	return nil
}
