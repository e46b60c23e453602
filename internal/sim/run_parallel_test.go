package sim

import (
	"context"
	"testing"

	"drishti/internal/workload"
)

// TestRunAloneParallelMatchesSerial: every parallelism must produce the
// bit-identical alone-IPC vector, since each per-core run is an
// independent deterministic system.
func TestRunAloneParallelMatchesSerial(t *testing.T) {
	cfg := testConfig(4)
	mix := testMix(t, cfg, "605.mcf_s-665B", 4)
	serial, err := RunAloneNContext(context.Background(), cfg, mix, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{2, 4, 8} {
		got, err := RunAloneNContext(context.Background(), cfg, mix, par)
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		for c := range serial {
			if got[c] != serial[c] {
				t.Fatalf("parallelism %d core %d: IPC %v != serial %v", par, c, got[c], serial[c])
			}
		}
	}
}

// TestRunAloneDefaultMatchesExplicit: the exported RunAlone (GOMAXPROCS
// pool) agrees with the serial path.
func TestRunAloneDefaultMatchesExplicit(t *testing.T) {
	cfg := testConfig(2)
	mix := testMix(t, cfg, "641.leela_s-800B", 2)
	def, err := RunAloneContext(context.Background(), cfg, mix)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := RunAloneNContext(context.Background(), cfg, mix, 1)
	if err != nil {
		t.Fatal(err)
	}
	for c := range serial {
		if def[c] != serial[c] {
			t.Fatalf("core %d: default %v != serial %v", c, def[c], serial[c])
		}
	}
}

// TestRunAloneErrorDeterministic: when several cores fail, the error of
// the lowest-numbered failing core wins at every parallelism, matching
// the serial path.
func TestRunAloneErrorDeterministic(t *testing.T) {
	cfg := testConfig(4)
	mix := testMix(t, cfg, "605.mcf_s-665B", 4)
	// Invalidate cores 1 and 3: a model with no streams fails generator
	// construction.
	mix.Models[1] = workload.Model{Name: "broken-1"}
	mix.Models[3] = workload.Model{Name: "broken-3"}
	_, errSerial := RunAloneNContext(context.Background(), cfg, mix, 1)
	if errSerial == nil {
		t.Fatal("serial run accepted a broken model")
	}
	for _, par := range []int{2, 8} {
		_, err := RunAloneNContext(context.Background(), cfg, mix, par)
		if err == nil {
			t.Fatalf("parallelism %d accepted a broken model", par)
		}
		if err.Error() != errSerial.Error() {
			t.Fatalf("parallelism %d error %q != serial %q", par, err, errSerial)
		}
	}
}
