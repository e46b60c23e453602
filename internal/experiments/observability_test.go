package experiments

import (
	"bytes"
	"strings"
	"testing"

	"drishti/internal/obs"
)

// TestSweepObservability drives one sweep with the full observability stack
// attached: live progress, structured per-cell run logs, and epoch
// telemetry flowing into a shared NDJSON sink.
func TestSweepObservability(t *testing.T) {
	cfg, mixes, specs := sweepFixture()
	nCells := len(mixes) * len(specs)

	var progOut, logOut, telemOut bytes.Buffer
	p := Params{Parallelism: 4}
	p.Progress = obs.NewProgress(&progOut, "sweep")
	p.Logger = obs.NewLogger(&logOut, "test", false)
	p.TelemetryEpoch = 5000
	p.TelemetrySink = obs.NewNDJSONWriter(&telemOut)
	cfg.TelemetryEpoch = p.TelemetryEpoch
	cfg.TelemetrySink = p.TelemetrySink

	ResetCache()
	defer ResetCache()
	if _, err := runSweep(cfg, mixes, specs, p); err != nil {
		t.Fatal(err)
	}
	p.Progress.Finish()

	if done, total := p.Progress.Snapshot(); done != nCells || total != nCells {
		t.Fatalf("progress %d/%d, want %d/%d", done, total, nCells, nCells)
	}
	logs := logOut.String()
	if got := strings.Count(logs, "cell done"); got != nCells {
		t.Fatalf("%d cell-done log lines, want %d:\n%s", got, nCells, logs)
	}
	if !strings.Contains(logs, "run=") || !strings.Contains(logs, "policy=") {
		t.Fatalf("run log missing run ID or policy: %s", logs)
	}
	// Every cell's run of record emits epochs into the shared sink; each
	// NDJSON line must be independently parseable (no torn writes).
	lines := strings.Split(strings.TrimSpace(telemOut.String()), "\n")
	if len(lines) < nCells {
		t.Fatalf("only %d telemetry lines for %d cells", len(lines), nCells)
	}
	for _, ln := range lines {
		if !strings.HasPrefix(ln, "{") || !strings.HasSuffix(ln, "}") {
			t.Fatalf("torn NDJSON line: %q", ln)
		}
		// The sweep attributes every epoch to its cell and batch lane, so
		// a shared sink never collapses the K lanes of one lockstep batch
		// into a single stream.
		if !strings.Contains(ln, `"cell":`) {
			t.Fatalf("epoch line missing cell run ID: %q", ln)
		}
		if !strings.Contains(ln, `"lane":`) {
			t.Fatalf("batched epoch line missing lane tag: %q", ln)
		}
	}
}

// TestSweepObservabilityOffIsDefault: zero-valued Params run exactly as
// before — no progress, no logs, no telemetry, no panics.
func TestSweepObservabilityOffIsDefault(t *testing.T) {
	cfg, mixes, specs := sweepFixture()
	ResetCache()
	defer ResetCache()
	if _, err := runSweep(cfg, mixes, specs[:1], Params{Parallelism: 2}); err != nil {
		t.Fatal(err)
	}
}
