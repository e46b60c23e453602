package sim

import (
	"bytes"
	"context"
	"reflect"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"drishti/internal/trace"
	"drishti/internal/workload"
)

// This file pins the lane pool's barrier work: the per-core shared
// streams are materialized on the pool, which neither changes a result
// nor moves a shared phase off the driver goroutine, and the first
// window's generation is timed.

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
// reflect.DeepEqual to the one-worker rotation on both sharing tiers. The
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
					t.Errorf("tier2=%v workers=%d lane %d (%s alone=%v): differs from the one-worker rotation\ngot:  %.300s\nwant: %.300s",
						tier2, workers, i, variants[i].Policy.DisplayName(), variants[i].Alone,
						resultJSON(t, got[i]), resultJSON(t, want[i]))
				}
			}
		}
	}
}

// slowReader takes at least delay to produce each record, and counts
// them. It busy-waits: time.Sleep's wake-up latency, far above delay on
// some hosts, would make the test slow without making it stricter.
type slowReader struct {
	trace.Reader
	delay time.Duration
	n     *atomic.Int64
}

func (r slowReader) Next() (trace.Rec, bool) {
	for start := time.Now(); time.Since(start) < r.delay; {
	}
	r.n.Add(1)
	return r.Reader.Next()
}

// genTimer sums "workload-gen" and notes how many records each core had
// generated when it was reported.
type genTimer struct {
	records []atomic.Int64
	gen     time.Duration
	reports int
	atGen   []int64
}

func (g *genTimer) ObservePhase(phase string, lane int, d time.Duration) {
	if phase != "workload-gen" {
		return
	}
	g.gen += d
	g.reports++
	g.atGen = g.atGen[:0]
	for c := range g.records {
		g.atGen = append(g.atGen, g.records[c].Load())
	}
}

// TestBatchFirstWindowIsWorkloadGen: on the raw-stream tier the records
// generated before the first rotation are timed as "workload-gen", once.
// With generation slowed by a delay per record, the reported time is at
// least the delay of the records generated by then: their sum on one lane
// worker, the slowest core's on two, which generate cores in parallel.
func TestBatchFirstWindowIsWorkloadGen(t *testing.T) {
	const delay = 10 * time.Microsecond
	for _, workers := range []int{1, 2} {
		cfg, mix := batchTestConfig(t, 2)
		cfg.Instructions, cfg.Warmup = 2_000, 500
		timer := &genTimer{records: make([]atomic.Int64, cfg.Cores)}
		raws := make([]*workload.Stream, cfg.Cores)
		for c := range raws {
			g, err := workload.NewReader(mix, c)
			if err != nil {
				t.Fatal(err)
			}
			raws[c] = workload.NewStream(slowReader{g, delay, &timer.records[c]}, 0)
		}
		lanes := []*batchLane{{cfg: cfg, cores: []int{0, 1}}}
		// A one-record window generates one chunk per core up front.
		err := runLockstep(context.Background(), lanes, raws, nil, timer, workers, make([]*epochBuffer, 1), 1)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if lanes[0].res == nil {
			t.Fatalf("workers=%d: the lane never finished", workers)
		}
		if timer.reports != 1 {
			t.Fatalf("workers=%d: workload-gen reported %d times, want once", workers, timer.reports)
		}
		var sum, slowest int64
		for _, n := range timer.atGen {
			sum += n
			slowest = max(slowest, n)
		}
		if slowest == 0 {
			t.Fatalf("workers=%d: no record generated before the first rotation", workers)
		}
		want := time.Duration(slowest) * delay
		if workers == 1 {
			want = time.Duration(sum) * delay
		}
		if timer.gen < want {
			t.Errorf("workers=%d: workload-gen %v for %v records, want at least %v", workers, timer.gen, timer.atGen, want)
		}
	}
}
