package sim

import (
	"context"
	"reflect"
	"testing"

	"drishti/internal/obs"
	"drishti/internal/policies"
)

// memSink collects epochs in memory for assertions.
type memSink struct {
	epochs []*obs.Epoch
}

func (m *memSink) WriteEpoch(e *obs.Epoch) error {
	cp := *e
	m.epochs = append(m.epochs, &cp)
	return nil
}

func telemetryConfig(cores int) Config {
	cfg := testConfig(cores)
	cfg.Policy = policies.Spec{Name: "hawkeye", Drishti: true}
	return cfg
}

// TestTelemetryDeterminism is the D5 guard: enabling the epoch snapshotter
// must not perturb the simulation in any observable way — the final Result
// is bit-identical with telemetry on or off.
func TestTelemetryDeterminism(t *testing.T) {
	cores := 4
	cfg := telemetryConfig(cores)
	mix := testMix(t, cfg, "605.mcf_s-1554B", cores)

	plain, err := RunMixContext(context.Background(), cfg, mix)
	if err != nil {
		t.Fatal(err)
	}

	sink := &memSink{}
	tcfg := cfg
	tcfg.TelemetryEpoch = 2000
	tcfg.TelemetrySink = sink
	traced, err := RunMixContext(context.Background(), tcfg, mix)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(plain, traced) {
		t.Fatalf("telemetry changed the simulation result:\noff: %+v\non:  %+v", plain, traced)
	}
	if len(sink.epochs) < 2 {
		t.Fatalf("only %d epochs emitted", len(sink.epochs))
	}
}

// TestTelemetryEpochContent checks the acceptance shape on a 4-core
// Hawkeye+Drishti run: per-slice demand miss rates, per-bank predictor
// activity, DSC sampled-set utilization, and NoC traffic all present, with
// epoch deltas consistent with the cumulative Result.
func TestTelemetryEpochContent(t *testing.T) {
	cores := 4
	cfg := telemetryConfig(cores)
	cfg.TelemetryEpoch = 2000
	sink := &memSink{}
	cfg.TelemetrySink = sink
	mix := testMix(t, cfg, "605.mcf_s-1554B", cores)

	res, err := RunMixContext(context.Background(), cfg, mix)
	if err != nil {
		t.Fatal(err)
	}
	if len(sink.epochs) == 0 {
		t.Fatal("no epochs emitted")
	}

	last := sink.epochs[len(sink.epochs)-1]
	if !last.Final {
		t.Fatal("last epoch not marked final")
	}
	for i, e := range sink.epochs[:len(sink.epochs)-1] {
		if e.Seq != i {
			t.Fatalf("epoch %d has seq %d", i, e.Seq)
		}
		if !e.Warmup && !e.Final && e.Loads != cfg.TelemetryEpoch {
			t.Fatalf("full epoch %d has %d loads", i, e.Loads)
		}
	}

	var sawSliceTraffic, sawBankActivity, sawDSCMisses, sawMesh bool
	for _, e := range sink.epochs {
		if e.Run != mix.Name {
			t.Fatalf("epoch run tag %q, want mix name %q", e.Run, mix.Name)
		}
		if e.Policy == "" {
			t.Fatal("epoch missing policy name")
		}
		if len(e.Slices) != cores || len(e.Cores) != cores {
			t.Fatalf("epoch has %d slices / %d cores", len(e.Slices), len(e.Cores))
		}
		// Drishti per-core-global placement: one predictor bank per core.
		if len(e.Banks) != cores {
			t.Fatalf("epoch has %d banks, want %d", len(e.Banks), cores)
		}
		// Dynamic sampled cache on every slice.
		if len(e.DSC) != cores {
			t.Fatalf("epoch has %d DSC entries, want %d", len(e.DSC), cores)
		}
		for _, s := range e.Slices {
			if s.MissRate < 0 || s.MissRate > 1 {
				t.Fatalf("slice miss rate %v out of range", s.MissRate)
			}
			if s.Accesses > 0 {
				sawSliceTraffic = true
			}
		}
		for _, c := range e.Cores {
			if c.HitRate < 0 || c.HitRate > 1 {
				t.Fatalf("core hit rate %v out of range", c.HitRate)
			}
		}
		for _, b := range e.Banks {
			if b.Lookups > 0 || b.Trains > 0 {
				sawBankActivity = true
			}
		}
		for _, d := range e.DSC {
			if d.Utilization < 0 || d.Utilization > 1 {
				t.Fatalf("DSC utilization %v out of range", d.Utilization)
			}
			if d.SampledMisses+d.UnsampledMisses > 0 {
				sawDSCMisses = true
			}
		}
		if e.Mesh.Messages > 0 {
			sawMesh = true
		}
	}
	if !sawSliceTraffic || !sawBankActivity || !sawDSCMisses || !sawMesh {
		t.Fatalf("missing signals: slice=%t bank=%t dsc=%t mesh=%t",
			sawSliceTraffic, sawBankActivity, sawDSCMisses, sawMesh)
	}

	// Post-warmup epoch deltas must sum to the cumulative Result counters
	// (both count demand traffic from the same reset point).
	var epochMisses uint64
	for _, e := range sink.epochs {
		if e.Warmup {
			continue
		}
		for _, s := range e.Slices {
			epochMisses += s.Misses
		}
	}
	if epochMisses != res.LLC.DemandMisses {
		t.Fatalf("epoch miss deltas sum to %d, Result has %d", epochMisses, res.LLC.DemandMisses)
	}
}

// TestTelemetryValidate: an epoch interval without a sink is a config error.
func TestTelemetryValidate(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.TelemetryEpoch = 1000
	if err := cfg.Validate(); err == nil {
		t.Fatal("epoch without sink accepted")
	}
	cfg.TelemetrySink = &memSink{}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestTelemetryKey: the epoch interval must separate memo-cache entries
// (a cached telemetry-off result replays no epochs), while sink and tag —
// which don't affect what is simulated — must not.
func TestTelemetryKey(t *testing.T) {
	a := DefaultConfig(4)
	b := a
	b.TelemetryEpoch = 1000
	if a.Key() == b.Key() {
		t.Fatal("telemetry epoch not keyed")
	}
	c := b
	c.TelemetrySink = &memSink{}
	c.TelemetryTag = "cell-7"
	if b.Key() != c.Key() {
		t.Fatal("sink/tag leaked into the key")
	}
}
