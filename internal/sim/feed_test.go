package sim

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"drishti/internal/trace"
	"drishti/internal/workload"
)

// guardReader fails the test when the simulator calls it after RunContext
// has returned: the feed's producer goroutine must have exited by then.
type guardReader struct {
	trace.Reader
	t        *testing.T
	returned *atomic.Bool
	calls    int
	onCall   func(calls int) // optional hook, run on the producer goroutine
}

func (g *guardReader) Next() (trace.Rec, bool) {
	if g.returned.Load() {
		g.t.Error("Next called after RunContext returned")
	}
	g.calls++
	if g.onCall != nil {
		g.onCall(g.calls)
	}
	return g.Reader.Next()
}

func (g *guardReader) Reset() {
	if g.returned.Load() {
		g.t.Error("Reset called after RunContext returned")
	}
	g.Reader.Reset()
}

// runGuarded runs readers (nil entries idle) under guard wrappers. The
// guards' call counts are read after RunContext returns, so under -race a
// producer still running would also be reported as a data race.
func runGuarded(t *testing.T, ctx context.Context, cfg Config, readers []trace.Reader, onCall func(int)) (*Result, []*guardReader, error) {
	t.Helper()
	returned := new(atomic.Bool)
	guards := make([]*guardReader, len(readers))
	wrapped := make([]trace.Reader, len(readers))
	for c, r := range readers {
		if r != nil {
			guards[c] = &guardReader{Reader: r, t: t, returned: returned, onCall: onCall}
			wrapped[c] = guards[c]
		}
	}
	sys, err := New(cfg, wrapped)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.RunContext(ctx)
	returned.Store(true)
	return res, guards, err
}

func feedTestReaders(t *testing.T, cfg Config, active ...int) []trace.Reader {
	t.Helper()
	models := workload.ScaleAll(workload.AllSPECGAP(), 8, cfg.SetIndexBits())
	readers := make([]trace.Reader, cfg.Cores)
	for _, c := range active {
		g, err := workload.NewGenerator(models[c%len(models)], uint64(c)+7)
		if err != nil {
			t.Fatal(err)
		}
		readers[c] = g
	}
	return readers
}

// A completed run leaves idle cores idle and stops the producer before
// returning.
func TestFeedIdleCoresAndCompletion(t *testing.T) {
	cfg := testConfig(4)
	res, guards, err := runGuarded(t, context.Background(), cfg, feedTestReaders(t, cfg, 1, 3), nil)
	if err != nil {
		t.Fatal(err)
	}
	for c, g := range guards {
		switch {
		case g == nil && res.PerCore[c].Instructions != 0:
			t.Errorf("idle core %d retired %d instructions", c, res.PerCore[c].Instructions)
		case g != nil && res.PerCore[c].Instructions < cfg.Instructions:
			t.Errorf("core %d retired %d of %d instructions", c, res.PerCore[c].Instructions, cfg.Instructions)
		}
	}
}

// Cancelling while the run is under way returns the wrapped ctx.Err(), and
// the producer has exited by then.
func TestFeedCancelMidRun(t *testing.T) {
	cfg := testConfig(2)
	cfg.Instructions = 2_000_000
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	onCall := func(calls int) {
		if calls == 4_000 {
			cancel() // from the producer goroutine, mid-run
		}
	}
	res, guards, err := runGuarded(t, ctx, cfg, feedTestReaders(t, cfg, 0, 1), onCall)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got result %v, error %v; want a wrapped context.Canceled", res != nil, err)
	}
	if guards[0].calls == 0 {
		t.Fatal("the run read no records before cancelling")
	}
}

// A run that errors out (here: a core whose trace is empty never advances,
// so the step guard trips) also stops the producer before returning.
func TestFeedGuardExceeded(t *testing.T) {
	cfg := testConfig(2)
	cfg.Instructions, cfg.Warmup = 2_000, 0
	readers := feedTestReaders(t, cfg, 0)
	readers[1] = trace.NewSliceReader(nil)
	_, _, err := runGuarded(t, context.Background(), cfg, readers, nil)
	if err == nil || !strings.Contains(err.Error(), "exceeded") {
		t.Fatalf("got %v, want the step guard's error", err)
	}
}

// A replayed trace shorter than the run loops through Reset on the feed's
// goroutine, and the run completes.
func TestFeedLoopsFiniteTrace(t *testing.T) {
	cfg := testConfig(2)
	readers := feedTestReaders(t, cfg, 0, 1)
	readers[1] = trace.NewSliceReader(trace.Collect(readers[1], 1_000))
	res, guards, err := runGuarded(t, context.Background(), cfg, readers, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.PerCore[1].Instructions < cfg.Instructions {
		t.Fatalf("looped core retired %d of %d instructions", res.PerCore[1].Instructions, cfg.Instructions)
	}
	if guards[1].calls <= 1_000 {
		t.Fatalf("looped core read %d records; the trace never looped", guards[1].calls)
	}
}
