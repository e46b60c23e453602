package sim

import (
	"context"
	"sync"
	"testing"
	"time"

	"drishti/internal/obs"
	"drishti/internal/policies"
	"drishti/internal/workload"
)

// This file pins the lane lifecycle of a lockstep batch: a lane's machine
// is built when the lane is first scheduled, into the machine of the lane
// its worker finished last when there is one, and handed back when it
// finishes; a lane that cannot be built fails the batch with the same
// error text at every worker count.

// laneRunCounter counts "lane-run" observations per lane: a lane observed
// once finished in its first rotation.
type laneRunCounter struct {
	mu   sync.Mutex
	runs map[int]int
}

func (l *laneRunCounter) ObservePhase(phase string, lane int, d time.Duration) {
	if phase != "lane-run" {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.runs == nil {
		l.runs = make(map[int]int)
	}
	l.runs[lane]++
}

// lifetimeVariants is a fig13-shaped batch in miniature: one alone lane
// per core, then the policy lanes.
func lifetimeVariants(cores int) []Variant {
	var vs []Variant
	for c := 0; c < cores; c++ {
		vs = append(vs, Variant{Policy: policies.Spec{Name: "lru"}, Alone: true, AloneCore: c})
	}
	for _, spec := range batchTestSpecs {
		vs = append(vs, Variant{Policy: spec})
	}
	return vs
}

// TestBatchWorkersLaneLifetime: when the run fits the window, a batch
// allocates at most LaneWorkers lane machines over its life — each lane
// worker recycles the machine of the lane it finished into the next it
// starts — and so holds at most that many at once, on both sharing tiers.
// Every machine is released before RunBatchContext returns, also when a
// shrunk window spreads the lanes over many rotations. Results match the
// serial loop throughout.
func TestBatchWorkersLaneLifetime(t *testing.T) {
	var (
		mu                 sync.Mutex
		live, peak, allocs int
	)
	laneLive = func(delta int) {
		mu.Lock()
		defer mu.Unlock()
		live += delta
		peak = max(peak, live)
		if delta > 0 {
			allocs++
		}
	}
	defer func() { laneLive = nil }()

	for _, shrunk := range []bool{false, true} {
		for _, tier2 := range []bool{false, true} {
			for _, workers := range []int{1, 2} {
				cfg, mix := batchTestConfig(t, 4)
				if tier2 {
					cfg.L1Prefetcher, cfg.L2Prefetcher = "none", "none"
				}
				cfg.LaneWorkers = workers
				counter := &laneRunCounter{}
				cfg.Phases = counter
				variants := lifetimeVariants(cfg.Cores)

				oldBudget := batchMemBudget
				if shrunk {
					batchMemBudget = 1
				}
				live, peak, allocs = 0, 0, 0
				results, err := RunBatchContext(context.Background(), cfg, variants, mix)
				batchMemBudget = oldBudget
				if err != nil {
					t.Fatalf("shrunk=%v tier2=%v workers=%d: %v", shrunk, tier2, workers, err)
				}
				if live != 0 {
					t.Errorf("shrunk=%v tier2=%v workers=%d: %d lane machines still held after return", shrunk, tier2, workers, live)
				}
				fits := true
				for i := range variants {
					if counter.runs[i] != 1 {
						fits = false
					}
				}
				if fits == shrunk {
					t.Fatalf("shrunk=%v tier2=%v: run fits the window = %v; the case tests nothing", shrunk, tier2, fits)
				}
				if fits && peak > workers {
					t.Errorf("tier2=%v workers=%d: %d lane machines held at once, want at most %d", tier2, workers, peak, workers)
				}
				if fits && allocs > workers {
					t.Errorf("tier2=%v workers=%d: %d lane machines allocated, want at most %d", tier2, workers, allocs, workers)
				}
				if peak == 0 {
					t.Errorf("shrunk=%v tier2=%v workers=%d: no lane machine was ever built", shrunk, tier2, workers)
				}

				mixLane := cfg.Cores // first policy lane: lru on the full mix
				c := cfg
				c.Phases = nil
				c.Policy = variants[mixLane].Policy
				serial, err := RunMixContext(context.Background(), c, mix)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := resultJSON(t, results[mixLane]), resultJSON(t, serial); got != want {
					t.Errorf("shrunk=%v tier2=%v workers=%d: mix lane differs from serial", shrunk, tier2, workers)
				}
			}
		}
	}
}

// laneEpochs is a shared telemetry sink that records the lane of every
// epoch it receives, as obs.TagEpochs stamps it (1-based).
type laneEpochs struct {
	mu    sync.Mutex
	lanes []int
}

func (s *laneEpochs) WriteEpoch(e *obs.Epoch) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lanes = append(s.lanes, e.Lane-1)
	return nil
}

// TestBatchWorkersBadLaneError: a lane whose policy spec cannot be built
// fails the batch with the text the batch has always returned for it —
// its index and name, then the builder's error — at every worker count
// and wherever the lane sits among lanes that build fine. A shared
// telemetry sink receives epochs from the lanes before the failing one
// and from no lane after it, although the pool runs those lanes too.
func TestBatchWorkersBadLaneError(t *testing.T) {
	cases := []struct {
		k    int
		want string
	}{
		{0, `sim: batch lane 0 (nosuch): policies: unknown policy "nosuch"`},
		{3, `sim: batch lane 3 (nosuch): policies: unknown policy "nosuch"`},
		{6, `sim: batch lane 6 (nosuch): policies: unknown policy "nosuch"`},
	}
	for _, tier2 := range []bool{false, true} {
		for _, tc := range cases {
			for _, workers := range []int{1, 2} {
				cfg, mix := batchTestConfig(t, 2)
				if tier2 {
					cfg.L1Prefetcher, cfg.L2Prefetcher = "none", "none"
				}
				cfg.LaneWorkers = workers
				sink := &laneEpochs{}
				cfg.TelemetryEpoch = 2000
				cfg.TelemetrySink = sink
				variants := lifetimeVariants(cfg.Cores)
				variants[tc.k] = Variant{Policy: policies.Spec{Name: "nosuch"}}
				for i := range variants {
					variants[i].TelemetrySink = obs.TagEpochs(sink, i+1, "")
				}
				_, err := RunBatchContext(context.Background(), cfg, variants, mix)
				if err == nil || err.Error() != tc.want {
					t.Errorf("tier2=%v lane %d workers=%d: error %v, want %q", tier2, tc.k, workers, err, tc.want)
				}
				sent := map[int]bool{}
				for _, lane := range sink.lanes {
					sent[lane] = true
					if lane >= tc.k {
						t.Errorf("tier2=%v lane %d workers=%d: sink received an epoch of lane %d", tier2, tc.k, workers, lane)
					}
				}
				// Lanes before the first policy lane are alone lanes,
				// which have telemetry off.
				if tc.k > cfg.Cores && !sent[tc.k-1] {
					t.Errorf("tier2=%v lane %d workers=%d: no epoch of lane %d reached the sink", tier2, tc.k, workers, tc.k-1)
				}
			}
		}
	}
}

// batchSink keeps BenchmarkRunBatch's results live.
var batchSink []*Result

// BenchmarkRunBatch runs one fig13-shaped 32-core lockstep batch at
// harness scale 8 — an alone lane per core, the LRU baseline and the four
// Hawkeye/Mockingjay lanes, 20000 + 5000 instructions — the lockstep
// barrier layer of the performance ledger. With -benchmem, B/op shows
// what the batch allocates over its life.
func BenchmarkRunBatch(b *testing.B) {
	cfg := ScaledConfig(32, 8)
	cfg.Instructions = 20_000
	cfg.Warmup = 5_000
	models := workload.ScaleAll(workload.AllSPECGAP(), 8, cfg.SetIndexBits())
	mix := workload.HeterogeneousMixes(models, 32, 1, 1)[0]
	lru := policies.Spec{Name: "lru"}
	var variants []Variant
	for c := 0; c < cfg.Cores; c++ {
		variants = append(variants, Variant{Policy: lru, Alone: true, AloneCore: c})
	}
	for _, spec := range []policies.Spec{
		lru,
		{Name: "hawkeye"},
		{Name: "hawkeye", Drishti: true},
		{Name: "mockingjay"},
		{Name: "mockingjay", Drishti: true},
	} {
		variants = append(variants, Variant{Policy: spec})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := RunBatchContext(context.Background(), cfg, variants, mix)
		if err != nil {
			b.Fatal(err)
		}
		batchSink = res
	}
}
