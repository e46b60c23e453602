package api

import (
	"reflect"
	"strings"
	"testing"

	"drishti/internal/workload"
)

func sweepRequest() JobRequest {
	return JobRequest{
		Cores:        2,
		Scale:        8,
		Instructions: 20_000,
		Warmup:       5_000,
		Policies:     []PolicyRequest{{Name: "lru"}, {Name: "srrip", Drishti: false}},
		Workloads:    []string{workload.AllSPECGAP()[0].Name, "hetero"},
	}
}

func TestWithDefaults(t *testing.T) {
	got := JobRequest{Cores: 4}.WithDefaults()
	want := JobRequest{Cores: 4, Scale: 8, Instructions: 200_000, Warmup: 50_000, Seed: 1}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("WithDefaults() = %+v, want %+v", got, want)
	}

	// Explicit values survive, and APIVersion is deliberately not stamped
	// (a request echoed back must carry exactly what the client sent).
	r := JobRequest{APIVersion: Version, Cores: 4, Scale: 2, Instructions: 7, Warmup: 3, Seed: 9}
	if got := r.WithDefaults(); !reflect.DeepEqual(got, r) {
		t.Errorf("WithDefaults() overrode explicit values: %+v", got)
	}
	if got := (JobRequest{Cores: 4}).WithDefaults(); got.APIVersion != 0 {
		t.Errorf("WithDefaults() stamped APIVersion = %d, want 0", got.APIVersion)
	}
}

func TestValidateAPIVersion(t *testing.T) {
	r := sweepRequest()
	// 0 means current; the current generation is the only other door.
	for _, v := range []int{0, Version} {
		r.APIVersion = v
		if err := r.Validate(); err != nil {
			t.Errorf("Validate() with apiVersion %d: %v", v, err)
		}
	}
	for _, v := range []int{1, 2, Version + 1} {
		r.APIVersion = v
		if err := r.Validate(); err == nil || !strings.Contains(err.Error(), "apiVersion") {
			t.Errorf("Validate() with apiVersion %d: err = %v, want apiVersion rejection", r.APIVersion, err)
		}
	}
}

func TestValidateTenancy(t *testing.T) {
	r := sweepRequest()
	r.Tenant = "team-a"
	for _, p := range []string{"", PriorityInteractive, PriorityNormal, PriorityBatch} {
		r.Priority = p
		if err := r.Validate(); err != nil {
			t.Errorf("Validate() with priority %q: %v", p, err)
		}
	}
	r.Priority = "urgent"
	if err := r.Validate(); err == nil || !strings.Contains(err.Error(), "priority") {
		t.Errorf("Validate() with unknown priority: err = %v, want priority rejection", err)
	}
	r.Priority = ""
	r.Tenant = "has space"
	if err := r.Validate(); err == nil || !strings.Contains(err.Error(), "tenant") {
		t.Errorf("Validate() with whitespace tenant: err = %v, want tenant rejection", err)
	}
	r.Tenant = strings.Repeat("x", 65)
	if err := r.Validate(); err == nil || !strings.Contains(err.Error(), "tenant") {
		t.Errorf("Validate() with oversized tenant: err = %v, want tenant rejection", err)
	}
}

func TestPriorityRank(t *testing.T) {
	if !(PriorityRank(PriorityInteractive) < PriorityRank("") &&
		PriorityRank("") == PriorityRank(PriorityNormal) &&
		PriorityRank(PriorityNormal) < PriorityRank(PriorityBatch)) {
		t.Fatalf("priority ranks out of order: interactive=%d empty=%d normal=%d batch=%d",
			PriorityRank(PriorityInteractive), PriorityRank(""), PriorityRank(PriorityNormal), PriorityRank(PriorityBatch))
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*JobRequest)
		want   string
	}{
		{"zero cores", func(r *JobRequest) { r.Cores = 0 }, "cores"},
		{"too many cores", func(r *JobRequest) { r.Cores = 1000 }, "cores"},
		{"no policies", func(r *JobRequest) { r.Policies = nil }, "policy"},
		{"no workloads", func(r *JobRequest) { r.Workloads = nil }, "workload"},
		{"unknown policy", func(r *JobRequest) { r.Policies[0].Name = "nope" }, "unknown policy"},
		{"unknown workload", func(r *JobRequest) { r.Workloads[0] = "no-such-model" }, "no workload model"},
		{"negative timeout", func(r *JobRequest) { r.TimeoutSec = -1 }, "timeoutSec"},
		{"instruction ceiling", func(r *JobRequest) { r.Instructions = 200_000_000 }, "ceiling"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := sweepRequest()
			tc.mutate(&r)
			err := r.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Validate() = %v, want error containing %q", err, tc.want)
			}
		})
	}
	r := sweepRequest()
	if err := r.Validate(); err != nil {
		t.Errorf("Validate() on a good request: %v", err)
	}
}

func TestDecodeStrict(t *testing.T) {
	var r JobRequest
	good := `{"cores":2,"policies":[{"name":"lru"}],"workloads":["mcf"]}`
	if err := DecodeStrict(strings.NewReader(good), &r); err != nil {
		t.Fatalf("DecodeStrict(good): %v", err)
	}
	if r.Cores != 2 || len(r.Policies) != 1 || r.Policies[0].Name != "lru" {
		t.Errorf("DecodeStrict decoded %+v", r)
	}

	unknown := `{"cores":2,"polcies":[{"name":"lru"}],"workloads":["mcf"]}`
	if err := DecodeStrict(strings.NewReader(unknown), &r); err == nil {
		t.Error("DecodeStrict accepted a misspelled field; schema drift would be silent")
	}

	trailing := good + `{"cores":3}`
	if err := DecodeStrict(strings.NewReader(trailing), &r); err == nil {
		t.Error("DecodeStrict accepted trailing data")
	}
}

// TestCellMatchesMixes pins the contract the fleet depends on: resolving a
// single cell on a worker yields exactly the config and mix the single-node
// executor derives from the whole request — including the "hetero" draw.
func TestCellMatchesMixes(t *testing.T) {
	r := sweepRequest().WithDefaults()
	mixes, err := r.Mixes()
	if err != nil {
		t.Fatal(err)
	}
	if len(mixes) != len(r.Workloads) {
		t.Fatalf("Mixes() returned %d mixes for %d workloads", len(mixes), len(r.Workloads))
	}
	seen := map[string]bool{}
	for wi := range r.Workloads {
		for pi, p := range r.Policies {
			cfg, mix, err := r.Cell(wi, pi)
			if err != nil {
				t.Fatalf("Cell(%d,%d): %v", wi, pi, err)
			}
			if !reflect.DeepEqual(mix, mixes[wi]) {
				t.Errorf("Cell(%d,%d) mix differs from Mixes()[%d]", wi, pi, wi)
			}
			if cfg.Policy.Name != p.Name {
				t.Errorf("Cell(%d,%d) policy = %q, want %q", wi, pi, cfg.Policy.Name, p.Name)
			}
			key := CellKey(cfg, mix)
			if seen[key] {
				t.Errorf("Cell(%d,%d) key %q collides with another cell", wi, pi, key)
			}
			seen[key] = true

			// The key must be reproducible on a second derivation — it is
			// the cell's content address in the durable store.
			cfg2, mix2, err := r.Cell(wi, pi)
			if err != nil {
				t.Fatal(err)
			}
			if k2 := CellKey(cfg2, mix2); k2 != key {
				t.Errorf("Cell(%d,%d) key not stable: %q then %q", wi, pi, key, k2)
			}
		}
	}

	if _, _, err := r.Cell(len(r.Workloads), 0); err == nil {
		t.Error("Cell() accepted an out-of-range workload index")
	}
	if _, _, err := r.Cell(0, len(r.Policies)); err == nil {
		t.Error("Cell() accepted an out-of-range policy index")
	}
}
