package policies

import (
	"strings"
	"testing"

	"drishti/internal/fabric"
	"drishti/internal/noc"
	"drishti/internal/repl"
	"drishti/internal/sampler"
	"drishti/internal/stats"
)

func geo() repl.Geometry { return repl.Geometry{Slices: 4, Cores: 4, SetsPerSlice: 256, Ways: 16} }

func buildSpec(t *testing.T, spec Spec) *Built {
	t.Helper()
	b, err := Build(spec, geo(), noc.NewMesh(4, 4, 2), noc.NewStar(4, 3), stats.NewRand(1))
	if err != nil {
		t.Fatalf("Build(%+v): %v", spec, err)
	}
	return b
}

func TestBuildAllPolicies(t *testing.T) {
	for _, name := range KnownPolicies() {
		for _, drishti := range []bool{false, true} {
			if drishti && !(Spec{Name: name}).IsPredictorBased() {
				continue
			}
			b := buildSpec(t, Spec{Name: name, Drishti: drishti})
			if len(b.PerSlice) != 4 {
				t.Fatalf("%s: %d slice policies", name, len(b.PerSlice))
			}
			for _, p := range b.PerSlice {
				if p == nil {
					t.Fatalf("%s: nil slice policy", name)
				}
			}
		}
	}
}

func TestUnknownPolicyRejected(t *testing.T) {
	if _, err := Build(Spec{Name: "belady"}, geo(), nil, nil, stats.NewRand(1)); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestDisplayName(t *testing.T) {
	if (Spec{Name: "mockingjay", Drishti: true}).DisplayName() != "d-mockingjay" {
		t.Fatal("display name wrong")
	}
	if (Spec{Name: "lru"}).DisplayName() != "lru" {
		t.Fatal("plain display name wrong")
	}
}

func TestDrishtiDefaults(t *testing.T) {
	b := buildSpec(t, Spec{Name: "mockingjay", Drishti: true})
	if b.Fabric.Placement() != fabric.PerCoreGlobal {
		t.Fatalf("drishti placement %v", b.Fabric.Placement())
	}
	if _, ok := b.Selectors[0].(*sampler.Dynamic); !ok {
		t.Fatalf("drishti selector %T, want dynamic", b.Selectors[0])
	}
	base := buildSpec(t, Spec{Name: "mockingjay"})
	if base.Fabric.Placement() != fabric.Local {
		t.Fatalf("baseline placement %v", base.Fabric.Placement())
	}
	if _, ok := base.Selectors[0].(*sampler.Static); !ok {
		t.Fatalf("baseline selector %T, want static", base.Selectors[0])
	}
}

func TestPlacementOverride(t *testing.T) {
	b := buildSpec(t, Spec{Name: "hawkeye", Placement: PlacementPtr(fabric.Centralized), FixedPredLatency: 1})
	if b.Fabric.Placement() != fabric.Centralized {
		t.Fatal("placement override ignored")
	}
	if b.Fabric.NumBanks() != 1 {
		t.Fatal("centralized should have one bank")
	}
}

func TestSampledSetsScaleWithGeometry(t *testing.T) {
	// 256-set slices: paper's 32-of-2048 ratio gives 4, floored to 8.
	spec := Spec{Name: "mockingjay"}
	if n := spec.sampledSets(256); n != 8 {
		t.Fatalf("scaled sampled sets %d, want 8", n)
	}
	if n := spec.sampledSets(2048); n != 32 {
		t.Fatalf("full-size sampled sets %d, want 32", n)
	}
	d := Spec{Name: "mockingjay", Drishti: true}
	if n := d.sampledSets(2048); n != 16 {
		t.Fatalf("drishti full-size sampled sets %d, want 16", n)
	}
	h := Spec{Name: "hawkeye"}
	if n := h.sampledSets(2048); n != 64 {
		t.Fatalf("hawkeye sampled sets %d, want 64", n)
	}
}

func TestFixedPerSlice(t *testing.T) {
	spec := Spec{Name: "mockingjay", FixedPerSlice: [][]int{{1, 2}, {3, 4}, {5, 6}, {7, 8}}}
	b := buildSpec(t, spec)
	got := b.Selectors[2].SampledSets()
	if len(got) != 2 || got[0] != 5 || got[1] != 6 {
		t.Fatalf("slice 2 sampled sets %v", got)
	}
}

func TestNonPredictorHasNoFabric(t *testing.T) {
	b := buildSpec(t, Spec{Name: "lru"})
	if b.Fabric != nil {
		t.Fatal("lru should not build a fabric")
	}
	if b.Shared != nil {
		t.Fatal("lru should have no shared state")
	}
}

func TestBudgetsPopulated(t *testing.T) {
	for _, name := range KnownPolicies() {
		if !(Spec{Name: name}).IsPredictorBased() {
			continue
		}
		b := buildSpec(t, Spec{Name: name})
		if len(b.Budget) == 0 {
			t.Fatalf("%s: empty budget", name)
		}
	}
}

// TestRenewValidatesGeometry pins the one geometry check every predictor
// policy relies on: a non-positive dimension and more sampled sets than a
// slice has sets are both errors, named as before the check moved here.
func TestRenewValidatesGeometry(t *testing.T) {
	for _, g := range []repl.Geometry{
		{Slices: 0, Cores: 4, SetsPerSlice: 256, Ways: 16},
		{Slices: 4, Cores: 0, SetsPerSlice: 256, Ways: 16},
		{Slices: 4, Cores: 4, SetsPerSlice: 0, Ways: 16},
		{Slices: 4, Cores: 4, SetsPerSlice: 256, Ways: 0},
	} {
		_, err := Build(Spec{Name: "hawkeye"}, g, noc.NewMesh(4, 4, 2), nil, stats.NewRand(1))
		if err == nil || !strings.HasPrefix(err.Error(), "policies: invalid geometry") {
			t.Errorf("geometry %+v: err %v, want invalid geometry", g, err)
		}
	}
	for _, spec := range []Spec{
		{Name: "hawkeye", SampledSets: 257},
		{Name: "ship++", Drishti: true, SampledSets: 257},
		{Name: "dip", DynamicSampler: BoolPtr(true), SampledSets: 257},
	} {
		_, err := Build(spec, geo(), noc.NewMesh(4, 4, 2), noc.NewStar(4, 3), stats.NewRand(1))
		want := spec.Name + ": 257 sampled sets exceed 256 sets"
		if err == nil || err.Error() != want {
			t.Errorf("%s: err %v, want %q", spec.DisplayName(), err, want)
		}
	}
	if _, err := Build(Spec{Name: "mockingjay", SampledSets: 256}, geo(), noc.NewMesh(4, 4, 2), nil, stats.NewRand(1)); err != nil {
		t.Errorf("every set sampled: %v", err)
	}
}

func TestSharedStateIsShared(t *testing.T) {
	b := buildSpec(t, Spec{Name: "hawkeye", Drishti: true})
	if b.Shared == nil {
		t.Fatal("no shared state")
	}
}

func TestTable2DesignSpaceBuildable(t *testing.T) {
	// Every placement in Table 2 must assemble.
	for _, place := range []fabric.Placement{
		fabric.Local, fabric.Centralized, fabric.PerCoreGlobal,
		fabric.GlobalSCCentralized, fabric.GlobalSCDistributed,
	} {
		buildSpec(t, Spec{Name: "mockingjay", Placement: PlacementPtr(place)})
	}
}
