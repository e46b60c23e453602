package api

import (
	"strings"
	"testing"

	"drishti/internal/scenario"
)

func scenarioSpec() *scenario.Spec {
	return &scenario.Spec{
		Version: scenario.Version,
		Name:    "api-check",
		Seed:    1,
		Machine: scenario.MachineSpec{Cores: 2, Scale: 8, Instructions: 20_000, Warmup: 5_000},
		Clients: []scenario.ClientSpec{
			{Name: "all", Workload: scenario.SourceSpec{Preset: "605.mcf_s-1554B"}},
		},
		Sweep: scenario.SweepSpec{
			Policies: []scenario.PolicySpec{{Name: "lru"}, {Name: "srrip"}},
			Configs:  []scenario.ConfigSpec{{Name: "a"}, {Name: "b", Cores: 4}},
		},
	}
}

func scenarioRequest() JobRequest {
	return JobRequest{Scenario: scenarioSpec()}
}

func TestScenarioRequestValidates(t *testing.T) {
	r := scenarioRequest()
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	// WithDefaults must leave the request untouched: the spec carries its
	// own defaults, and the echo has to be byte-identical to the submission.
	if got := r.WithDefaults(); got.Cores != 0 || got.Instructions != 0 {
		t.Errorf("WithDefaults() stamped sweep fields onto a scenario request: %+v", got)
	}

	both := scenarioRequest()
	both.Cores = 2
	if err := both.Validate(); err == nil || !strings.Contains(err.Error(), "must not also") {
		t.Errorf("scenario+cores validated: %v", err)
	}
	both = scenarioRequest()
	both.Workloads = []string{"mcf"}
	if err := both.Validate(); err == nil {
		t.Error("scenario+workloads validated")
	}

	bad := scenarioRequest()
	bad.Scenario.Sweep.Policies[0].Name = "nosuch"
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "known policies") {
		t.Errorf("bad scenario policy: %v", err)
	}

	// File traces have no anchor on the wire and must be rejected at
	// validation, not at execution.
	file := scenarioRequest()
	file.Scenario.Clients[0].Workload = scenario.SourceSpec{Trace: &scenario.TraceSpec{File: "x.csv"}}
	if err := file.Validate(); err == nil || !strings.Contains(err.Error(), "inline the csv") {
		t.Errorf("file trace validated on the wire: %v", err)
	}
}

func TestScenarioGridAndCells(t *testing.T) {
	r := scenarioRequest()
	nw, np, err := r.Grid()
	if err != nil {
		t.Fatal(err)
	}
	if nw != 2 || np != 2 {
		t.Fatalf("grid = %dx%d, want 2x2", nw, np)
	}
	if got := r.WorkloadName(0); got != "api-check/a" {
		t.Errorf("WorkloadName(0) = %q", got)
	}
	if got := r.WorkloadName(1); got != "api-check/b" {
		t.Errorf("WorkloadName(1) = %q", got)
	}
	mixes, err := r.Mixes()
	if err != nil {
		t.Fatal(err)
	}
	if len(mixes) != 2 || mixes[0].Cores() != 2 || mixes[1].Cores() != 4 {
		t.Fatalf("mixes resolved wrong: %d entries", len(mixes))
	}
	for wi := 0; wi < nw; wi++ {
		for pi := 0; pi < np; pi++ {
			cfg, mix, err := r.Cell(wi, pi)
			if err != nil {
				t.Fatal(err)
			}
			if cfg.Policy.Name != r.Scenario.Sweep.Policies[pi].Name {
				t.Errorf("cell (%d,%d) policy = %s", wi, pi, cfg.Policy.Name)
			}
			if cfg.Cores != mix.Cores() {
				t.Errorf("cell (%d,%d): cfg %d cores, mix %d", wi, pi, cfg.Cores, mix.Cores())
			}
		}
	}
	if _, _, err := r.Cell(2, 0); err == nil {
		t.Error("out-of-range cell resolved")
	}
}

// TestScenarioCellKeyMatchesPlainRequest pins the dedup identity at the
// API layer: a single-preset scenario resolves to the exact CellKey a
// plain cores/workloads request produces, so the store serves either one
// from the other's results.
func TestScenarioCellKeyMatchesPlainRequest(t *testing.T) {
	sr := scenarioRequest()
	sr.Scenario.Sweep.Configs = nil // single base run

	plain := JobRequest{
		Cores:        2,
		Scale:        8,
		Instructions: 20_000,
		Warmup:       5_000,
		Seed:         1,
		Policies:     []PolicyRequest{{Name: "lru"}, {Name: "srrip"}},
		Workloads:    []string{"605.mcf_s-1554B"},
	}.WithDefaults()

	for pi := 0; pi < 2; pi++ {
		scfg, smix, err := sr.Cell(0, pi)
		if err != nil {
			t.Fatal(err)
		}
		pcfg, pmix, err := plain.Cell(0, pi)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := CellKey(scfg, smix), CellKey(pcfg, pmix); got != want {
			t.Errorf("policy %d cell key diverged:\n scenario %s\n plain    %s", pi, got, want)
		}
	}
}

// TestScenarioGoldenWire pins the wire bytes of a scenario-bearing job
// request: the scenario field is additive (no version bump) and its
// schema is the scenario package's golden-pinned spec schema.
func TestScenarioGoldenWire(t *testing.T) {
	req := scenarioRequest()
	req.APIVersion = Version
	checkGolden(t, "job_request_scenario.golden.json", encodeWire(t, req))

	// A plain request must not grow a scenario field.
	if got := encodeWire(t, sweepRequest()); strings.Contains(string(got), "scenario") {
		t.Error("nil scenario leaked into the plain-request wire format")
	}

	// Strict decoding round-trips the golden bytes.
	var back JobRequest
	if err := DecodeStrict(strings.NewReader(string(encodeWire(t, req))), &back); err != nil {
		t.Fatal(err)
	}
	if back.Scenario == nil || back.Scenario.Name != "api-check" {
		t.Errorf("round-trip lost the scenario: %+v", back.Scenario)
	}
}
