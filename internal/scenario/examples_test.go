package scenario

import (
	"context"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"drishti/internal/sim"
)

// examplesDir is the committed scenario library at the repo root.
const examplesDir = "../../examples/scenarios"

// TestExampleScenariosCompile loads and compiles every committed example
// spec — the same validation `make scenarios` and CI run — so a registry
// rename or schema change can never orphan a shipped file.
func TestExampleScenariosCompile(t *testing.T) {
	entries, err := os.ReadDir(examplesDir)
	if err != nil {
		t.Fatal(err)
	}
	var files []string
	for _, e := range entries {
		if ext := filepath.Ext(e.Name()); ext == ".yaml" || ext == ".yml" || ext == ".json" {
			files = append(files, e.Name())
		}
	}
	sort.Strings(files)
	if len(files) < 4 {
		t.Fatalf("examples/scenarios holds %d specs, want at least 4", len(files))
	}
	for _, name := range files {
		t.Run(name, func(t *testing.T) {
			spec, err := Load(filepath.Join(examplesDir, name))
			if err != nil {
				t.Fatal(err)
			}
			c, err := spec.Compile(examplesDir)
			if err != nil {
				t.Fatal(err)
			}
			if len(c.Runs) == 0 || len(c.Policies) == 0 {
				t.Fatalf("compiled to %d runs x %d policies", len(c.Runs), len(c.Policies))
			}
			// Compiling twice must give the same content address.
			again, err := spec.Compile(examplesDir)
			if err != nil {
				t.Fatal(err)
			}
			if c.Key() != again.Key() {
				t.Error("recompile changed the key")
			}
		})
	}
}

// TestExampleScenarioRuns executes the smallest committed scenario end to
// end (every run x policy cell) — the smoke `make scenarios` repeats.
func TestExampleScenarioRuns(t *testing.T) {
	spec, err := Load(filepath.Join(examplesDir, "trace-replay.yaml"))
	if err != nil {
		t.Fatal(err)
	}
	c, err := spec.Compile(examplesDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range c.Runs {
		for _, pol := range c.Policies {
			cfg := run.Cfg
			cfg.Policy = pol
			res, err := sim.RunMixContext(context.Background(), cfg, run.Mix)
			if err != nil {
				t.Fatalf("run %s policy %s: %v", run.Name, pol.DisplayName(), err)
			}
			if res.IPCSum() <= 0 {
				t.Errorf("run %s policy %s: non-positive IPC sum", run.Name, pol.DisplayName())
			}
		}
	}
}
