package sim

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"drishti/internal/policies"
	"drishti/internal/prefetch"
	"drishti/internal/trace"
	"drishti/internal/workload"
)

// This file pins machine recycling inside a lockstep batch: a lane built
// into the machine of a lane that finished before it (see renew) produces
// exactly the Result a freshly built machine does.

// recycleVariants returns the alone lanes (half lru, half srrip, so both
// policies' LLC rows get recycled into a lane of the same policy) and the
// full-mix policy lanes of a batch, alone lanes first or last.
func recycleVariants(cores int, aloneFirst bool) []Variant {
	var alone, full []Variant
	for c := 0; c < cores; c++ {
		spec := policies.Spec{Name: "lru"}
		if c >= cores/2 {
			spec = policies.Spec{Name: "srrip"}
		}
		alone = append(alone, Variant{Policy: spec, Alone: true, AloneCore: c})
	}
	for _, spec := range batchTestSpecs {
		full = append(full, Variant{Policy: spec})
	}
	if aloneFirst {
		return append(alone, full...)
	}
	return append(full, alone...)
}

// TestBatchWorkersRecycledMatchesFresh: every lane of a batch that
// recycles machines is reflect.DeepEqual to the same lane run on a fresh
// machine — mix lanes against RunMixContext, alone lanes against the
// runAloneCore run RunAloneNContext makes per core — on both sharing
// tiers, at 1 and 2 lane workers, with the alone lanes before the full
// lanes and after them.
func TestBatchWorkersRecycledMatchesFresh(t *testing.T) {
	var (
		mu     sync.Mutex
		allocs int
	)
	laneLive = func(delta int) {
		mu.Lock()
		defer mu.Unlock()
		if delta > 0 {
			allocs++
		}
	}
	defer func() { laneLive = nil }()

	for _, tier2 := range []bool{false, true} {
		cfg, mix := batchTestConfig(t, 4)
		if tier2 {
			cfg.L1Prefetcher, cfg.L2Prefetcher = "none", "none"
		}
		fresh := map[string]*Result{} // by lane, shared by both orders
		for _, aloneFirst := range []bool{true, false} {
			variants := recycleVariants(cfg.Cores, aloneFirst)
			want := make([]*Result, len(variants))
			for i, v := range variants {
				key := v.Policy.DisplayName()
				if v.Alone {
					key = fmt.Sprintf("alone-%d", v.AloneCore)
				}
				if fresh[key] == nil {
					c := cfg
					c.Policy = v.Policy
					var err error
					if v.Alone {
						fresh[key], err = runAloneCore(context.Background(), c, mix, v.AloneCore)
					} else {
						fresh[key], err = RunMixContext(context.Background(), c, mix)
					}
					if err != nil {
						t.Fatal(err)
					}
				}
				want[i] = fresh[key]
			}
			for _, workers := range []int{1, 2} {
				c := cfg
				c.LaneWorkers = workers
				allocs = 0
				got, err := RunBatchContext(context.Background(), c, variants, mix)
				if err != nil {
					t.Fatalf("tier2=%v aloneFirst=%v workers=%d: %v", tier2, aloneFirst, workers, err)
				}
				if allocs >= len(variants) {
					t.Fatalf("tier2=%v aloneFirst=%v workers=%d: %d machines allocated for %d lanes; nothing was recycled",
						tier2, aloneFirst, workers, allocs, len(variants))
				}
				for i := range variants {
					if !reflect.DeepEqual(got[i], want[i]) {
						t.Errorf("tier2=%v aloneFirst=%v workers=%d lane %d (%s alone=%v): recycled lane differs from a fresh run\nrecycled: %.300s\nfresh:    %.300s",
							tier2, aloneFirst, workers, i, variants[i].Policy.DisplayName(), variants[i].Alone,
							resultJSON(t, got[i]), resultJSON(t, want[i]))
					}
				}
			}
		}
	}
}

// TestRenewMatchesNew: a machine built into a spare that has run — other
// policy, other active cores — is reflect.DeepEqual to one New builds,
// every reset array included, for each pair of lane kinds a batch
// recycles between. IP-stride prefetchers keep their grown (flushed) PC
// table, so they are compared by behaviour instead: both must propose the
// same prefetches for the same training sequence.
func TestRenewMatchesNew(t *testing.T) {
	cfg, mix := batchTestConfig(t, 4)
	cfg.Instructions, cfg.Warmup = 4000, 1000
	readers := func(active []int) []trace.Reader {
		rs := make([]trace.Reader, cfg.Cores)
		for _, c := range active {
			r, err := workload.NewReader(mix, c)
			if err != nil {
				t.Fatal(err)
			}
			rs[c] = r
		}
		return rs
	}
	all := []int{0, 1, 2, 3}
	kinds := []struct {
		name   string
		policy string
		active []int
	}{
		{"alone-lru-1", "lru", []int{1}},
		{"alone-srrip-2", "srrip", []int{2}},
		{"full-lru", "lru", all},
		{"full-srrip", "srrip", all},
		{"full-mockingjay", "mockingjay", all},
	}
	for _, from := range kinds {
		for _, to := range kinds {
			c := cfg
			c.Policy = policies.Spec{Name: from.policy}
			spare, err := New(c, readers(from.active))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := spare.RunContext(context.Background()); err != nil {
				t.Fatal(err)
			}
			c.Policy = policies.Spec{Name: to.policy}
			rs := readers(to.active)
			got, err := renew(spare, c, rs)
			if err != nil {
				t.Fatal(err)
			}
			want, err := New(c, rs)
			if err != nil {
				t.Fatal(err)
			}
			for core, pf := range want.l2pf {
				if _, ok := pf.(*prefetch.IPStride); ok {
					assertSameStrides(t, got.l2pf[core], pf)
					got.l2pf[core], want.l2pf[core] = nil, nil
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s → %s: the renewed machine differs from a new one", from.name, to.name)
			}
		}
	}
}

// assertSameStrides trains two prefetchers on one strided access pattern
// over several PCs and requires identical proposals at every step.
func assertSameStrides(t *testing.T, a, b prefetch.Prefetcher) {
	t.Helper()
	if reflect.TypeOf(a) != reflect.TypeOf(b) {
		t.Fatalf("renewed prefetcher is a %T, a new one a %T", a, b)
	}
	for i := uint64(0); i < 4096; i++ {
		pc, addr := 0x400000+i%7*4, 1<<30+i*(64+i%7*64)
		pa := append([]uint64(nil), a.Train(pc, addr, false)...)
		pb := b.Train(pc, addr, false)
		if !reflect.DeepEqual(pa, append([]uint64(nil), pb...)) {
			t.Fatalf("step %d: renewed IP-stride proposes %v, a new one %v", i, pa, pb)
		}
	}
}
