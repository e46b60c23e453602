package sim

import (
	"bytes"
	"context"
	"sync"
	"testing"
	"time"

	"drishti/internal/obs"
)

// TestBatchPerLaneTelemetryMatchesSerial is the per-lane attribution
// regression test: a batched run with a telemetry sink per Variant must
// emit, for every lane, the byte-identical epoch stream its serial run
// emits.
func TestBatchPerLaneTelemetryMatchesSerial(t *testing.T) {
	cfg, mix := batchTestConfig(t, 2)
	cfg.TelemetryEpoch = 2000

	specs := batchTestSpecs[:3]
	variants := make([]Variant, len(specs))
	batchOut := make([]*bytes.Buffer, len(specs))
	for i, spec := range specs {
		batchOut[i] = &bytes.Buffer{}
		variants[i] = Variant{
			Policy:        spec,
			TelemetrySink: obs.NewNDJSONWriter(batchOut[i]),
		}
	}
	base := cfg
	base.TelemetrySink = obs.NewNDJSONWriter(&bytes.Buffer{}) // Validate requires a sink
	if _, err := RunBatchContext(context.Background(), base, variants, mix); err != nil {
		t.Fatalf("RunBatch: %v", err)
	}

	for i, spec := range specs {
		var serialOut bytes.Buffer
		c := cfg
		c.Policy = spec
		c.TelemetrySink = obs.NewNDJSONWriter(&serialOut)
		if _, err := RunMixContext(context.Background(), c, mix); err != nil {
			t.Fatalf("serial %s: %v", spec.DisplayName(), err)
		}
		if batchOut[i].Len() == 0 {
			t.Fatalf("lane %d (%s) emitted no telemetry", i, spec.DisplayName())
		}
		if got, want := batchOut[i].String(), serialOut.String(); got != want {
			t.Errorf("lane %d (%s): batched telemetry differs from serial\nbatched: %.300s\nserial:  %.300s",
				i, spec.DisplayName(), got, want)
		}
	}
}

// phaseLog is a PhaseObserver accumulating observed durations per
// (phase, lane). The mutex keeps -race happy if a future batch driver
// goes parallel; today calls arrive from one goroutine.
type phaseLog struct {
	mu  sync.Mutex
	got map[string]time.Duration
}

func (p *phaseLog) ObservePhase(phase string, lane int, d time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.got == nil {
		p.got = make(map[string]time.Duration)
	}
	key := phase
	if lane >= 0 {
		key = phase + "#" + string(rune('0'+lane))
	}
	p.got[key] += d
}

// TestBatchPhaseObserverDeterminism: attaching a phase observer is
// strictly observational — results stay bit-identical to an unobserved
// run, on both sharing tiers, while the observer sees every phase.
func TestBatchPhaseObserverDeterminism(t *testing.T) {
	for _, tier2 := range []bool{false, true} {
		cfg, mix := batchTestConfig(t, 2)
		if tier2 {
			cfg.L1Prefetcher, cfg.L2Prefetcher = "none", "none"
			if !tier2Eligible(cfg) {
				t.Fatal("config not tier-2 eligible")
			}
		}
		variants := []Variant{{Policy: batchTestSpecs[0]}, {Policy: batchTestSpecs[2]}}

		plain, err := RunBatchContext(context.Background(), cfg, variants, mix)
		if err != nil {
			t.Fatal(err)
		}
		obsCfg := cfg
		log := &phaseLog{}
		obsCfg.Phases = log
		observed, err := RunBatchContext(context.Background(), obsCfg, variants, mix)
		if err != nil {
			t.Fatal(err)
		}
		for i := range plain {
			if got, want := resultJSON(t, observed[i]), resultJSON(t, plain[i]); got != want {
				t.Errorf("tier2=%t lane %d: phase observer changed the result", tier2, i)
			}
		}
		for _, phase := range []string{"workload-gen", "lane-run#0", "lane-run#1", "barrier"} {
			if _, ok := log.got[phase]; !ok {
				t.Errorf("tier2=%t: phase %q never observed: %v", tier2, phase, log.got)
			}
		}
		if _, ok := log.got["private-replay"]; ok != tier2 {
			t.Errorf("tier2=%t: private-replay observed=%t: %v", tier2, ok, log.got)
		}
	}
}
