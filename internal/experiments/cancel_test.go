package experiments

import (
	"bytes"
	"context"
	"errors"
	"log/slog"
	"strings"
	"testing"

	"drishti/internal/workload"
)

// A cancelled Params.Context must abort a sweep on both the serial and the
// parallel path with an error wrapping context.Canceled.
func TestSweepCancelled(t *testing.T) {
	cfg, mixes, specs := sweepFixture()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, par := range []int{1, 4} {
		ResetCache()
		_, err := runSweep(cfg, mixes, specs, Params{Parallelism: par, Context: ctx})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("parallelism %d: got %v, want context.Canceled", par, err)
		}
	}
	ResetCache()
}

// The zero-value Context must run to completion exactly like before.
func TestSweepZeroContextCompletes(t *testing.T) {
	cfg, mixes, specs := sweepFixture()
	ResetCache()
	sr, err := runSweep(cfg, mixes, specs, Params{Parallelism: 2})
	ResetCache()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(sr.normWS); got != len(specs) {
		t.Fatalf("sweep returned %d spec rows, want %d", got, len(specs))
	}
}

// A failed mix stops a pool of one: with mixes [good, bad, good] at
// Parallelism 1 the sweep returns the bad mix's error, and no cell of the
// third mix runs, exactly as a serial loop would.
func TestSweepStopsAfterFailedMix(t *testing.T) {
	cfg, mixes, specs := sweepFixture()
	bad := mixes[1]
	bad.Name, bad.Models, bad.Seeds = "bad", bad.Models[:1], bad.Seeds[:1]
	third := mixes[1]
	third.Name = "third"
	var log bytes.Buffer
	ResetCache()
	_, err := runSweep(cfg, []workload.Mix{mixes[0], bad, third}, specs,
		Params{Parallelism: 1, Logger: slog.New(slog.NewTextHandler(&log, nil))})
	ResetCache()
	if err == nil || !strings.Contains(err.Error(), "bad") {
		t.Fatalf("got %v, want the bad mix's error", err)
	}
	if !strings.Contains(log.String(), "mix="+mixes[0].Name) {
		t.Fatalf("first mix logged no cell:\n%s", log.String())
	}
	if strings.Contains(log.String(), "mix=third") {
		t.Fatalf("a cell of the mix after the failure ran:\n%s", log.String())
	}
}
