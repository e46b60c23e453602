package main

import (
	"bytes"
	"context"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"

	"drishti/internal/scenario"
	"drishti/internal/sim"
)

func TestBuildMixHomogeneous(t *testing.T) {
	cfg := sim.ScaledConfig(4, 8)
	mix, err := buildMix(cfg, "homo", "mcf_s-1554B", 4, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if mix.Cores() != 4 {
		t.Fatalf("cores %d", mix.Cores())
	}
	for _, m := range mix.Models {
		if !strings.Contains(m.Name, "mcf") {
			t.Fatalf("model %s", m.Name)
		}
	}
}

func TestBuildMixHeterogeneous(t *testing.T) {
	cfg := sim.ScaledConfig(8, 8)
	mix, err := buildMix(cfg, "hetero", "", 8, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	if mix.Cores() != 8 {
		t.Fatalf("cores %d", mix.Cores())
	}
}

func TestBuildMixErrors(t *testing.T) {
	cfg := sim.ScaledConfig(2, 8)
	if _, err := buildMix(cfg, "homo", "not-a-benchmark", 2, 8, 1); err == nil {
		t.Fatal("bogus workload accepted")
	}
	if _, err := buildMix(cfg, "sideways", "", 2, 8, 1); err == nil {
		t.Fatal("bogus mix kind accepted")
	}
	// The workload-not-found error must list the registry for the user.
	_, err := buildMix(cfg, "homo", "zzz", 2, 8, 1)
	if err == nil || !strings.Contains(err.Error(), "605.mcf") {
		t.Fatalf("unhelpful error: %v", err)
	}
}

// TestRunScenarioBatchMatchesPerPolicyRuns checks that -scenario, which
// runs each scenario run's policies as one lockstep batch, reports for
// every cell exactly what running that policy on its own reports.
func TestRunScenarioBatchMatchesPerPolicyRuns(t *testing.T) {
	const path = "../../examples/scenarios/trace-replay.yaml"
	var out bytes.Buffer
	if err := runScenario(&out, path, false, true, func(*sim.Config) {}); err != nil {
		t.Fatal(err)
	}
	var got struct {
		Results []struct {
			Run    string          `json:"run"`
			Policy string          `json:"policy"`
			Result json.RawMessage `json:"result"`
		} `json:"results"`
	}
	if err := json.Unmarshal(out.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	spec, err := scenario.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	c, err := spec.Compile(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	for _, r := range c.Runs {
		for _, p := range c.Policies {
			cfg := r.Cfg
			cfg.Policy = p
			res, err := sim.RunMixContext(context.Background(), cfg, r.Mix)
			if err != nil {
				t.Fatal(err)
			}
			want, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			if i >= len(got.Results) {
				t.Fatalf("scenario reported %d cells, want %d", len(got.Results), len(c.Runs)*len(c.Policies))
			}
			cell := got.Results[i]
			var compact bytes.Buffer
			if err := json.Compact(&compact, cell.Result); err != nil {
				t.Fatal(err)
			}
			if cell.Run != r.Name || cell.Policy != p.DisplayName() || !bytes.Equal(compact.Bytes(), want) {
				t.Fatalf("cell %d (%s/%s): batched result differs from RunMixContext:\n%s\nvs\n%s",
					i, cell.Run, cell.Policy, compact.Bytes(), want)
			}
			i++
		}
	}
	if i != len(got.Results) {
		t.Fatalf("scenario reported %d cells, want %d", len(got.Results), i)
	}
}
