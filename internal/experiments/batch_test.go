package experiments

import (
	"context"
	"sync"
	"testing"

	"drishti/internal/metrics"
	"drishti/internal/policies"
	"drishti/internal/sim"
)

// TestSweepBatchedMatchesUnbatched is the sweep-level bit-identity guard
// for lockstep batching: every number the batched sweep reports (alone
// IPCs, baseline WS, normWS, MPKI, WPKI, energy) must equal the value the
// test computes itself from separate sim.RunMixContext and
// sim.RunAloneNContext runs and metrics.Compute — an oracle that shares
// no code with the batch grouper. Two sweeps (Parallelism 1 and 2) run
// CONCURRENTLY on purpose: under -race this doubles as the shared-state
// check for batch groups racing each other through the same memo caches.
func TestSweepBatchedMatchesUnbatched(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep determinism test is not -short")
	}
	cfg, mixes, specs := sweepFixture()
	ctx := context.Background()

	// Independent reference: one simulation per cell, alone IPCs and the
	// LRU baseline measured separately, normalized by hand.
	type ref struct {
		alone  []float64
		baseWS float64
		normWS []float64
		res    []*sim.Result
	}
	refs := make([]ref, len(mixes))
	for mi, mix := range mixes {
		base := cfg
		base.Policy = policies.Spec{Name: "lru"}
		alone, err := sim.RunAloneNContext(ctx, base, mix, 1)
		if err != nil {
			t.Fatal(err)
		}
		baseRes, err := sim.RunMixContext(ctx, base, mix)
		if err != nil {
			t.Fatal(err)
		}
		bm, err := metrics.Compute(baseRes.IPCs(), alone)
		if err != nil {
			t.Fatal(err)
		}
		r := ref{alone: alone, baseWS: bm.WS}
		for _, spec := range specs {
			c := cfg
			c.Policy = spec
			res, err := sim.RunMixContext(ctx, c, mix)
			if err != nil {
				t.Fatal(err)
			}
			m, err := metrics.Compute(res.IPCs(), alone)
			if err != nil {
				t.Fatal(err)
			}
			r.normWS = append(r.normWS, m.WS/bm.WS)
			r.res = append(r.res, res)
		}
		refs[mi] = r
	}

	ResetCache()
	pars := []int{1, 2}
	sweeps := make([]*sweepResult, len(pars))
	errs := make([]error, len(pars))
	var wg sync.WaitGroup
	for i, par := range pars {
		wg.Add(1)
		go func(i, par int) {
			defer wg.Done()
			sweeps[i], errs[i] = runSweep(cfg, mixes, specs, Params{Parallelism: par})
		}(i, par)
	}
	wg.Wait()
	ResetCache()

	for i, sr := range sweeps {
		par := pars[i]
		if errs[i] != nil {
			t.Fatalf("parallelism %d sweep: %v", par, errs[i])
		}
		for mi, r := range refs {
			ev := sr.evals[mi]
			if ev == nil {
				t.Fatalf("parallelism %d: eval[%d] missing", par, mi)
			}
			if ev.baseWS != r.baseWS {
				t.Errorf("parallelism %d baseWS[%d]: sweep %v != reference %v", par, mi, ev.baseWS, r.baseWS)
			}
			for c := range r.alone {
				if ev.alone[c] != r.alone[c] {
					t.Errorf("parallelism %d alone[%d][%d]: sweep %v != reference %v", par, mi, c, ev.alone[c], r.alone[c])
				}
			}
			for si := range specs {
				if got, want := sr.normWS[si][mi], r.normWS[si]; got != want {
					t.Errorf("parallelism %d normWS[%d][%d]: sweep %v != reference %v", par, si, mi, got, want)
				}
				got, want := sr.outcomes[si][mi].res, r.res[si]
				if got.MPKI != want.MPKI {
					t.Errorf("parallelism %d MPKI[%d][%d]: sweep %v != reference %v", par, si, mi, got.MPKI, want.MPKI)
				}
				if got.WPKI != want.WPKI {
					t.Errorf("parallelism %d WPKI[%d][%d]: sweep %v != reference %v", par, si, mi, got.WPKI, want.WPKI)
				}
				if got.Energy.Total != want.Energy.Total {
					t.Errorf("parallelism %d energy[%d][%d]: sweep %v != reference %v", par, si, mi,
						got.Energy.Total, want.Energy.Total)
				}
			}
		}
	}
}

// TestSweepBatchedLaneWorkersMatchesSerial turns BOTH concurrency knobs
// on at once — sweep-level Parallelism and intra-batch LaneWorkers — and
// requires the result to be bit-identical to the fully serial sweep.
// Under -race this is the composition check: batch groups running on the
// sweep pool while each group's lanes run on its own lane pool, all
// through the shared memo caches.
func TestSweepBatchedLaneWorkersMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep determinism test is not -short")
	}
	cfg, mixes, specs := sweepFixture()

	ResetCache()
	serial, err := runSweep(cfg, mixes, specs, Params{Parallelism: 1, LaneWorkers: 1})
	if err != nil {
		t.Fatalf("serial batched sweep: %v", err)
	}
	ResetCache()
	par, err := runSweep(cfg, mixes, specs, Params{Parallelism: 2, LaneWorkers: 2})
	if err != nil {
		t.Fatalf("parallel batched sweep: %v", err)
	}
	ResetCache()

	for si := range specs {
		for mi := range mixes {
			if s, p := serial.normWS[si][mi], par.normWS[si][mi]; s != p {
				t.Errorf("normWS[%d][%d]: serial %v != parallel+lanes %v", si, mi, s, p)
			}
			sres, pres := serial.outcomes[si][mi].res, par.outcomes[si][mi].res
			if sres.MPKI != pres.MPKI {
				t.Errorf("MPKI[%d][%d]: serial %v != parallel+lanes %v", si, mi, sres.MPKI, pres.MPKI)
			}
			if sres.Energy.Total != pres.Energy.Total {
				t.Errorf("energy[%d][%d]: serial %v != parallel+lanes %v", si, mi,
					sres.Energy.Total, pres.Energy.Total)
			}
		}
		if serial.geoNormWS(si) != par.geoNormWS(si) {
			t.Errorf("geoNormWS(%d) differs with both concurrency knobs on", si)
		}
	}
	for mi := range mixes {
		sev, pev := serial.evals[mi], par.evals[mi]
		if sev.baseWS != pev.baseWS {
			t.Errorf("baseWS[%d]: serial %v != parallel+lanes %v", mi, sev.baseWS, pev.baseWS)
		}
		for c := range sev.alone {
			if sev.alone[c] != pev.alone[c] {
				t.Errorf("alone[%d][%d]: serial %v != parallel+lanes %v", mi, c, sev.alone[c], pev.alone[c])
			}
		}
	}
}

// TestSweepBatchedDedupsBaseline: when LRU is one of the swept specs its
// lane doubles as the eval baseline — the baseline result in the eval and
// the LRU cell's result must be the same simulation (and exactly equal).
func TestSweepBatchedDedupsBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip()
	}
	p := tinyParams()
	cfg := p.config(2)
	mixes := p.paperMixes(cfg, 2)[:1]
	specs := []policies.Spec{{Name: "lru"}, {Name: "srrip"}}

	ResetCache()
	sr, err := runSweep(cfg, mixes, specs, Params{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	ResetCache()
	for si, spec := range specs {
		if spec.Name != "lru" || spec.Drishti {
			continue
		}
		if sr.outcomes[si][0].res != sr.evals[0].baseRes {
			t.Errorf("LRU cell result is not the deduplicated baseline lane")
		}
		if sr.normWS[si][0] != 1 {
			t.Errorf("LRU normalized WS = %v, want exactly 1 (same run as baseline)", sr.normWS[si][0])
		}
	}
}
