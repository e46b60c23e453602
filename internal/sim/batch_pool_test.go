package sim

import (
	"bytes"
	"context"
	"reflect"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"
)

// This file pins the lane pool's barrier work: with more than one lane
// worker the per-core shared streams are materialized on the pool, which
// neither changes a result nor moves a shared phase off the driver
// goroutine.

// goroutineID returns the calling goroutine's runtime ID, read from the
// first line of its stack ("goroutine N [running]:").
func goroutineID() int64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	id, err := strconv.ParseInt(string(b[:bytes.IndexByte(b, ' ')]), 10, 64)
	if err != nil {
		panic(err)
	}
	return id
}

// driverCheck is a PhaseObserver that records every shared phase (lane
// -1) reported from a goroutine other than the driver's.
type driverCheck struct {
	driver int64
	mu     sync.Mutex
	seen   map[string]bool
	stray  []string
	replay time.Duration // summed "private-replay"
}

func (d *driverCheck) ObservePhase(phase string, lane int, dur time.Duration) {
	if lane >= 0 {
		return
	}
	onDriver := goroutineID() == d.driver
	d.mu.Lock()
	defer d.mu.Unlock()
	d.seen[phase] = true
	if phase == "private-replay" {
		d.replay += dur
	}
	if !onDriver {
		d.stray = append(d.stray, phase)
	}
}

// TestBatchWorkersParallelEnsureMatchesSerial: a batch whose barriers
// materialize the shared streams on 2 or 3 lane workers is
// reflect.DeepEqual to the serial rotation on both sharing tiers. The
// one-chunk window makes every lane pause at many barriers, every shared
// phase reaches the observer from the goroutine that called
// RunBatchContext, and "private-replay", which is wall-clock time, adds
// up to no more than the batch took.
func TestBatchWorkersParallelEnsureMatchesSerial(t *testing.T) {
	old := batchMemBudget
	batchMemBudget = 1
	defer func() { batchMemBudget = old }()

	for _, tier2 := range []bool{false, true} {
		cfg, mix := batchTestConfig(t, 4)
		if tier2 {
			cfg.L1Prefetcher, cfg.L2Prefetcher = "none", "none"
		}
		variants := recycleVariants(cfg.Cores, true)
		var want []*Result
		for _, workers := range []int{1, 2, 3} {
			c := cfg
			c.LaneWorkers = workers
			check := &driverCheck{driver: goroutineID(), seen: map[string]bool{}}
			c.Phases = check
			start := time.Now()
			got, err := RunBatchContext(context.Background(), c, variants, mix)
			wall := time.Since(start)
			if err != nil {
				t.Fatalf("tier2=%v workers=%d: %v", tier2, workers, err)
			}
			if len(check.stray) > 0 {
				t.Errorf("tier2=%v workers=%d: shared phases reported off the driver goroutine: %v",
					tier2, workers, check.stray)
			}
			for _, phase := range []string{"workload-gen", "barrier"} {
				if !check.seen[phase] {
					t.Errorf("tier2=%v workers=%d: shared phase %q never reported", tier2, workers, phase)
				}
			}
			if check.seen["private-replay"] != tier2 {
				t.Errorf("tier2=%v workers=%d: private-replay reported=%v", tier2, workers, check.seen["private-replay"])
			}
			if check.replay > wall {
				t.Errorf("tier2=%v workers=%d: private-replay sums to %v, more than the batch's %v of wall time",
					tier2, workers, check.replay, wall)
			}
			if want == nil {
				want = got
				continue
			}
			for i := range variants {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Errorf("tier2=%v workers=%d lane %d (%s alone=%v): differs from the serial rotation\ngot:  %.300s\nwant: %.300s",
						tier2, workers, i, variants[i].Policy.DisplayName(), variants[i].Alone,
						resultJSON(t, got[i]), resultJSON(t, want[i]))
				}
			}
		}
	}
}
