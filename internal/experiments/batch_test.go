package experiments

import (
	"context"
	"reflect"
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

// TestSweepBatchedLaneWorkersMatchesSerial runs the sweep at Parallelism
// 1, 2 and 8 — one lane at a time, two lane workers on one batch, and
// several lane workers on each of several concurrent batches (splitBudget)
// — and requires every result to be bit-identical to the serial sweep. Under -race this
// is the composition check: batches running on the sweep pool while each
// batch's lanes run on its own lane pool, all through the shared memo
// caches.
func TestSweepBatchedLaneWorkersMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep determinism test is not -short")
	}
	cfg, mixes, specs := sweepFixture()

	ResetCache()
	defer ResetCache()
	serial, err := runSweep(cfg, mixes, specs, Params{Parallelism: 1})
	if err != nil {
		t.Fatalf("serial batched sweep: %v", err)
	}
	for _, budget := range []int{2, 8} {
		ResetCache()
		par, err := runSweep(cfg, mixes, specs, Params{Parallelism: budget})
		if err != nil {
			t.Fatalf("batched sweep at Parallelism %d: %v", budget, err)
		}
		for si := range specs {
			for mi := range mixes {
				if s, p := serial.normWS[si][mi], par.normWS[si][mi]; s != p {
					t.Errorf("Parallelism %d: normWS[%d][%d]: serial %v != %v", budget, si, mi, s, p)
				}
				sres, pres := serial.outcomes[si][mi].res, par.outcomes[si][mi].res
				if sres.MPKI != pres.MPKI {
					t.Errorf("Parallelism %d: MPKI[%d][%d]: serial %v != %v", budget, si, mi, sres.MPKI, pres.MPKI)
				}
				if sres.Energy.Total != pres.Energy.Total {
					t.Errorf("Parallelism %d: energy[%d][%d]: serial %v != %v", budget, si, mi,
						sres.Energy.Total, pres.Energy.Total)
				}
			}
			if serial.geoNormWS(si) != par.geoNormWS(si) {
				t.Errorf("Parallelism %d: geoNormWS(%d) differs from serial", budget, si)
			}
		}
		for mi := range mixes {
			sev, pev := serial.evals[mi], par.evals[mi]
			if sev.baseWS != pev.baseWS {
				t.Errorf("Parallelism %d: baseWS[%d]: serial %v != %v", budget, mi, sev.baseWS, pev.baseWS)
			}
			for c := range sev.alone {
				if sev.alone[c] != pev.alone[c] {
					t.Errorf("Parallelism %d: alone[%d][%d]: serial %v != %v", budget, mi, c, sev.alone[c], pev.alone[c])
				}
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

// TestSweepBatchedLanesAndMixesMatchSerial: with one spec on 2-core mixes
// a batch has 4 lanes (two alone, the LRU baseline, the spec), so a budget
// of 8 gives each batch 4 lane workers and runs 2 mixes at once — both
// parallelism levels in use. The sweep must be reflect.DeepEqual to the
// serial one.
func TestSweepBatchedLanesAndMixesMatchSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep determinism test is not -short")
	}
	cfg, mixes, _ := sweepFixture()
	specs := []policies.Spec{{Name: "hawkeye", Drishti: true}}
	if len(mixes) < 2 {
		t.Fatalf("fixture has %d mixes; the mix pool needs two", len(mixes))
	}

	ResetCache()
	defer ResetCache()
	if lanes := len(planBatch(cfg, mixes[0], specs).variants); lanes != 4 {
		t.Fatalf("a 2-core batch with one spec has %d lanes, want 4", lanes)
	}
	if lw, par := splitBudget(8, 4, len(mixes)); lw != 4 || par != 2 {
		t.Fatalf("budget 8 split into %d lane workers × %d mixes, want 4 × 2", lw, par)
	}
	serial, err := runSweep(cfg, mixes, specs, Params{Parallelism: 1})
	if err != nil {
		t.Fatalf("serial sweep: %v", err)
	}
	ResetCache()
	par, err := runSweep(cfg, mixes, specs, Params{Parallelism: 8})
	if err != nil {
		t.Fatalf("sweep at Parallelism 8: %v", err)
	}
	if !reflect.DeepEqual(par, serial) {
		t.Errorf("sweep with lane and mix pools differs from the serial sweep")
	}
}
