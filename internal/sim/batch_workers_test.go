package sim

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"sync"
	"testing"
	"time"

	"drishti/internal/obs"
	"drishti/internal/workload"
)

// This file pins the parallel-lockstep contract: a batched run is
// byte-identical at every Config.LaneWorkers setting — per-lane Results,
// the telemetry byte stream on one shared sink, and the deadlock-breaker
// window-growth path all match the one-worker rotation exactly.

// workerCounts is the sweep the regression tests run: serial, the
// smallest parallel pool, and the host default. Duplicates are kept —
// rerunning a count is a cheap extra determinism check.
func workerCounts() []int {
	return []int{1, 2, runtime.GOMAXPROCS(0)}
}

// batchWorkersRun executes one batch at the given worker count and
// returns a SHA-256 digest per lane result plus the bytes a single
// shared telemetry sink received (lane-tagged NDJSON).
func batchWorkersRun(t *testing.T, cfg Config, mix workload.Mix, workers int) ([]string, []byte) {
	t.Helper()
	var shared bytes.Buffer
	sink := obs.NewNDJSONWriter(&shared)
	base := cfg
	base.LaneWorkers = workers
	base.TelemetryEpoch = 2000
	base.TelemetrySink = sink // Validate needs one even though variants override

	variants := make([]Variant, len(batchTestSpecs))
	for i, spec := range batchTestSpecs {
		variants[i] = Variant{
			Policy:        spec,
			TelemetryTag:  "cell-" + spec.DisplayName(),
			TelemetrySink: obs.TagEpochs(sink, i+1, "wsweep"),
		}
	}
	results, err := RunBatchContext(context.Background(), base, variants, mix)
	if err != nil {
		t.Fatalf("RunBatch (workers=%d): %v", workers, err)
	}
	hashes := make([]string, len(results))
	for i, r := range results {
		sum := sha256.Sum256([]byte(resultJSON(t, r)))
		hashes[i] = hex.EncodeToString(sum[:])
	}
	if shared.Len() == 0 {
		t.Fatalf("workers=%d: shared sink received no telemetry", workers)
	}
	return hashes, shared.Bytes()
}

// assertWorkersSweepIdentical runs the batch across workerCounts and
// requires SHA-256-equal results and a byte-equal shared telemetry
// stream at every count.
func assertWorkersSweepIdentical(t *testing.T, cfg Config, mix workload.Mix) {
	t.Helper()
	var (
		refHashes []string
		refTelem  []byte
	)
	for _, w := range workerCounts() {
		hashes, telem := batchWorkersRun(t, cfg, mix, w)
		if refHashes == nil {
			refHashes, refTelem = hashes, telem
			continue
		}
		for i := range hashes {
			if hashes[i] != refHashes[i] {
				t.Errorf("workers=%d lane %d (%s): result SHA-256 %s, workers=1 got %s",
					w, i, batchTestSpecs[i].DisplayName(), hashes[i], refHashes[i])
			}
		}
		if !bytes.Equal(telem, refTelem) {
			t.Errorf("workers=%d: shared telemetry stream differs from workers=1 (%d vs %d bytes)",
				w, len(telem), len(refTelem))
		}
	}
}

// TestBatchWorkersSweepDeterminism is the cross-worker-count regression
// test, on both sharing tiers.
func TestBatchWorkersSweepDeterminism(t *testing.T) {
	for _, tier2 := range []bool{false, true} {
		cfg, mix := batchTestConfig(t, 2)
		if tier2 {
			cfg.L1Prefetcher, cfg.L2Prefetcher = "none", "none"
			if !tier2Eligible(cfg) {
				t.Fatal("config not tier-2 eligible")
			}
		}
		assertWorkersSweepIdentical(t, cfg, mix)
	}
}

// TestBatchWorkersShrunkWindowDeterminism runs the budget-shrunk window
// (one chunk per core) at every worker count: the rotation pauses lanes
// far more often, and results and telemetry must stay byte-identical.
func TestBatchWorkersShrunkWindowDeterminism(t *testing.T) {
	old := batchMemBudget
	batchMemBudget = 1
	defer func() { batchMemBudget = old }()
	cfg, mix := batchTestConfig(t, 2)
	assertWorkersSweepIdentical(t, cfg, mix)
}

// growCounter counts deadlock-breaker "window-grow" events; safe for the
// concurrent callbacks the PhaseObserver contract allows.
type growCounter struct {
	mu    sync.Mutex
	grows int
}

func (g *growCounter) ObservePhase(phase string, lane int, d time.Duration) {
	if phase != "window-grow" {
		return
	}
	g.mu.Lock()
	g.grows++
	g.mu.Unlock()
}

// TestBatchWorkersGrowthPathIdentity shrinks the lockstep window until
// the deadlock breaker fires and checks the growth count — and the
// results — are identical at every worker count. The rotation structure
// is part of the deterministic schedule, so a parallel rotation must
// block, grow, and resume exactly where the serial one does.
func TestBatchWorkersGrowthPathIdentity(t *testing.T) {
	oldWindow := batchWindow
	batchWindow = 32 // tight enough that cross-core shapes mutually block
	defer func() { batchWindow = oldWindow }()
	cfg, mix := batchTestConfig(t, 4)

	var (
		refHashes []string
		refGrows  = -1
	)
	for _, w := range workerCounts() {
		base := cfg
		base.LaneWorkers = w
		gc := &growCounter{}
		base.Phases = gc
		variants := make([]Variant, len(batchTestSpecs))
		for i, spec := range batchTestSpecs {
			variants[i] = Variant{Policy: spec}
		}
		results, err := RunBatchContext(context.Background(), base, variants, mix)
		if err != nil {
			t.Fatalf("RunBatch (workers=%d): %v", w, err)
		}
		hashes := make([]string, len(results))
		for i, r := range results {
			sum := sha256.Sum256([]byte(resultJSON(t, r)))
			hashes[i] = hex.EncodeToString(sum[:])
		}
		if refGrows < 0 {
			refHashes, refGrows = hashes, gc.grows
			if refGrows == 0 {
				t.Fatal("tight window never fired the deadlock breaker; the test exercises nothing")
			}
			continue
		}
		if gc.grows != refGrows {
			t.Errorf("workers=%d: %d window growths, workers=1 had %d", w, gc.grows, refGrows)
		}
		for i := range hashes {
			if hashes[i] != refHashes[i] {
				t.Errorf("workers=%d lane %d: result differs from workers=1 under a tight window", w, i)
			}
		}
	}
}
