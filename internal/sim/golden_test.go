package sim

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"drishti/internal/policies"
	"drishti/internal/workload"
)

// goldenCell is one point of the policy×mix determinism grid.
type goldenCell struct {
	policy  policies.Spec
	model   string
	cores   int
	trackPC bool
}

// goldenGrid covers the paths the hot-path optimizations touch: baseline and
// sampled-cache policies, power-of-two and non-power-of-two core counts (the
// latter exercises the h%cores slice-hash fallback end to end), a write-heavy
// mix (writeback fill path), and the PC→slice tracker (open-addressing table).
var goldenGrid = []goldenCell{
	{policy: policies.Spec{Name: "lru"}, model: "605.mcf_s-1554B", cores: 4},
	{policy: policies.Spec{Name: "dip"}, model: "605.mcf_s-1554B", cores: 4},
	{policy: policies.Spec{Name: "hawkeye", Drishti: true}, model: "605.mcf_s-1554B", cores: 4},
	{policy: policies.Spec{Name: "mockingjay", Drishti: true}, model: "605.mcf_s-1554B", cores: 4},
	{policy: policies.Spec{Name: "lru"}, model: "602.gcc_s-734B", cores: 3},
	{policy: policies.Spec{Name: "dip"}, model: "602.gcc_s-734B", cores: 3},
	{policy: policies.Spec{Name: "hawkeye", Drishti: true}, model: "602.gcc_s-734B", cores: 3},
	{policy: policies.Spec{Name: "mockingjay", Drishti: true}, model: "602.gcc_s-734B", cores: 3},
	{policy: policies.Spec{Name: "lru"}, model: "619.lbm_s-2676B", cores: 2},
	{policy: policies.Spec{Name: "srrip"}, model: "619.lbm_s-2676B", cores: 2},
	{policy: policies.Spec{Name: "mockingjay", Drishti: true}, model: "619.lbm_s-2676B", cores: 2},
	{policy: policies.Spec{Name: "lru"}, model: "pr-twitter", cores: 8, trackPC: true},
}

// goldenHashes pins the exact Result of every grid cell as produced by the
// pre-optimization simulator (captured at the seed of this PR). The hot-path
// work — heap scheduler, single-probe fill, SoA tag arrays, open-addressing
// tables — must reproduce these bit-for-bit: any drift here is a correctness
// bug, not an acceptable perf tradeoff. Regenerate (only for intentional
// model changes) with:
//
//	DRISHTI_GOLDEN_UPDATE=1 go test ./internal/sim -run TestGoldenResultHashes -v
var goldenHashes = map[string]string{
	"name=lru|drishti=false|place=nil|nocstar=nil|predlat=0|dsc=nil|ssets=0|fixed=|perslice=/605.mcf_s-1554B/c4/pc=false":       "e8dd20d42b7e1b143445bbc00b57b4274db47e665ef970bd197b1d83e641d0d3",
	"name=dip|drishti=false|place=nil|nocstar=nil|predlat=0|dsc=nil|ssets=0|fixed=|perslice=/605.mcf_s-1554B/c4/pc=false":       "a671a2599fc79470c90b90754bd90d4f60e7e0e4a1a1f265dcc94d8e1bb14351",
	"name=hawkeye|drishti=true|place=nil|nocstar=nil|predlat=0|dsc=nil|ssets=0|fixed=|perslice=/605.mcf_s-1554B/c4/pc=false":    "0256e01ccfdf3142a8fde60237c415945ceefab5e504918d2b8c18fd91e3c203",
	"name=mockingjay|drishti=true|place=nil|nocstar=nil|predlat=0|dsc=nil|ssets=0|fixed=|perslice=/605.mcf_s-1554B/c4/pc=false": "560c7cf3d8cf505e44badbc116b0ab1ef103fdf9ab1d6b6274c06a4faee2ba64",
	"name=lru|drishti=false|place=nil|nocstar=nil|predlat=0|dsc=nil|ssets=0|fixed=|perslice=/602.gcc_s-734B/c3/pc=false":        "0d850e96cd5920ef57756dd3506b10e55c79625d69b87b4ec92e35a09c9f2d46",
	"name=dip|drishti=false|place=nil|nocstar=nil|predlat=0|dsc=nil|ssets=0|fixed=|perslice=/602.gcc_s-734B/c3/pc=false":        "c2244fbf823f8d9284232604beb586f6ad5eac53e504f757ca7e0f35c423d1f3",
	"name=hawkeye|drishti=true|place=nil|nocstar=nil|predlat=0|dsc=nil|ssets=0|fixed=|perslice=/602.gcc_s-734B/c3/pc=false":     "be3425edfd2695a0213ae2c4959725112f8fff6f4b855aa84ee52ec5490a697f",
	"name=mockingjay|drishti=true|place=nil|nocstar=nil|predlat=0|dsc=nil|ssets=0|fixed=|perslice=/602.gcc_s-734B/c3/pc=false":  "c552d8fb0df76e745526c70736b486aeb8db026fa9b9af1f5bd6b744f9bbe21b",
	"name=lru|drishti=false|place=nil|nocstar=nil|predlat=0|dsc=nil|ssets=0|fixed=|perslice=/619.lbm_s-2676B/c2/pc=false":       "233354af170b4a0234f03d992852e7b5f82ed0b6f6bd87208794568fc8e161d9",
	"name=srrip|drishti=false|place=nil|nocstar=nil|predlat=0|dsc=nil|ssets=0|fixed=|perslice=/619.lbm_s-2676B/c2/pc=false":     "d56476cf60326b0957c29c2370768ceedc6c92c16f0017f9c68abafc0d8045b7",
	"name=mockingjay|drishti=true|place=nil|nocstar=nil|predlat=0|dsc=nil|ssets=0|fixed=|perslice=/619.lbm_s-2676B/c2/pc=false": "a485ff300e5061f49a5d45cb85dc5502105df3b026e3be50e8a26dcc9ea774b5",
	"name=lru|drishti=false|place=nil|nocstar=nil|predlat=0|dsc=nil|ssets=0|fixed=|perslice=/pr-twitter/c8/pc=true":             "ce5203b1e967ea494d52c4716dfdc253157eac0824997401179632812761b54c",
}

func goldenKey(c goldenCell) string {
	return fmt.Sprintf("%s/%s/c%d/pc=%v", c.policy.Key(), c.model, c.cores, c.trackPC)
}

// goldenHash canonicalizes a Result to a hex digest. JSON marshaling is
// deterministic for the fields involved (maps serialize with sorted keys,
// floats round-trip exactly), so equal digests mean equal results.
func goldenHash(t *testing.T, res *Result) string {
	t.Helper()
	blob, err := json.Marshal(res)
	if err != nil {
		t.Fatalf("marshal result: %v", err)
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:])
}

func goldenRun(t *testing.T, c goldenCell) *Result {
	t.Helper()
	cfg := ScaledConfig(c.cores, 8)
	cfg.Instructions = 30_000
	cfg.Warmup = 6_000
	cfg.Policy = c.policy
	cfg.TrackPCSlices = c.trackPC
	m, ok := workload.ByName(c.model)
	if !ok {
		t.Fatalf("model %s missing", c.model)
	}
	mix := workload.Homogeneous(m.Scale(8, cfg.SetIndexBits()), c.cores, 5)
	res, err := RunMixContext(context.Background(), cfg, mix)
	if err != nil {
		t.Fatalf("%s: %v", goldenKey(c), err)
	}
	return res
}

// TestGoldenBatchedMatchesSerial is the bit-identity guard for lockstep
// batching: the golden grid's cells, grouped by (model, cores) into
// multi-policy batches, must hash to the exact same values the serial path
// pins in goldenHashes — per lane, for both sharing tiers. Tier 1 shares
// only the raw record stream; the tier-2 pass additionally shares the
// private L1/L2 hierarchy (prefetchers off) and is checked batched vs
// serial since those cells have no pinned hash.
func TestGoldenBatchedMatchesSerial(t *testing.T) {
	type group struct {
		cells []goldenCell
	}
	groups := map[string]*group{}
	var order []string
	for _, c := range goldenGrid {
		key := fmt.Sprintf("%s/c%d/pc=%v", c.model, c.cores, c.trackPC)
		g, ok := groups[key]
		if !ok {
			g = &group{}
			groups[key] = g
			order = append(order, key)
		}
		g.cells = append(g.cells, c)
	}
	for _, key := range order {
		g := groups[key]
		c0 := g.cells[0]
		t.Run(key, func(t *testing.T) {
			t.Parallel()
			cfg := ScaledConfig(c0.cores, 8)
			cfg.Instructions = 30_000
			cfg.Warmup = 6_000
			cfg.TrackPCSlices = c0.trackPC
			m, ok := workload.ByName(c0.model)
			if !ok {
				t.Fatalf("model %s missing", c0.model)
			}
			mix := workload.Homogeneous(m.Scale(8, cfg.SetIndexBits()), c0.cores, 5)

			variants := make([]Variant, len(g.cells))
			for i, c := range g.cells {
				variants[i] = Variant{Policy: c.policy}
			}

			// Tier 1: default prefetchers, against the pinned hashes.
			batched, err := RunBatchContext(context.Background(), cfg, variants, mix)
			if err != nil {
				t.Fatalf("tier-1 batch: %v", err)
			}
			for i, c := range g.cells {
				got := goldenHash(t, batched[i])
				if want := goldenHashes[goldenKey(c)]; got != want {
					t.Errorf("tier-1 lane %s drifted from serial golden:\n got %s\nwant %s", goldenKey(c), got, want)
				}
			}

			// Tier 2: prefetchers off, against fresh serial runs.
			t2 := cfg
			t2.L1Prefetcher, t2.L2Prefetcher = "none", "none"
			if !tier2Eligible(t2) {
				t.Fatal("prefetcher-free config should be tier-2 eligible")
			}
			batched, err = RunBatchContext(context.Background(), t2, variants, mix)
			if err != nil {
				t.Fatalf("tier-2 batch: %v", err)
			}
			for i, c := range g.cells {
				sc := t2
				sc.Policy = c.policy
				serial, err := RunMixContext(context.Background(), sc, mix)
				if err != nil {
					t.Fatalf("tier-2 serial %s: %v", c.policy.Key(), err)
				}
				if got, want := goldenHash(t, batched[i]), goldenHash(t, serial); got != want {
					t.Errorf("tier-2 lane %s differs from serial:\n got %s\nwant %s", goldenKey(c), got, want)
				}
			}
		})
	}
}

// TestGoldenResultHashes is the bit-identity guard for the hot-path
// optimizations: every cell of the grid must hash exactly to the value
// captured before the refactor.
func TestGoldenResultHashes(t *testing.T) {
	update := os.Getenv("DRISHTI_GOLDEN_UPDATE") == "1"
	for _, c := range goldenGrid {
		c := c
		t.Run(goldenKey(c), func(t *testing.T) {
			t.Parallel()
			got := goldenHash(t, goldenRun(t, c))
			if update {
				t.Logf("GOLDEN\t%q: %q,", goldenKey(c), got)
				return
			}
			want, ok := goldenHashes[goldenKey(c)]
			if !ok {
				t.Fatalf("no golden hash recorded for %s (got %s)", goldenKey(c), got)
			}
			if got != want {
				t.Fatalf("result drifted from pre-optimization golden:\n got %s\nwant %s", got, want)
			}
		})
	}
}

// goldenPredictorGrid pins the six predictor policies goldenGrid leaves
// out, baseline and D-, on one small two-core mix: every sampled-cache +
// reuse-predictor policy the policies package builds is then covered.
var goldenPredictorGrid = func() []goldenCell {
	var cells []goldenCell
	for _, name := range []string{"ship++", "glider", "chrome", "sdbp", "leeway", "perceptron"} {
		for _, d := range []bool{false, true} {
			cells = append(cells, goldenCell{policy: policies.Spec{Name: name, Drishti: d}, model: "605.mcf_s-1554B", cores: 2})
		}
	}
	return cells
}()

// goldenPredictorHashes are goldenPredictorGrid's Result digests, recorded
// when each predictor policy still declared its own configuration struct.
// Regenerate (only for intentional model changes) with:
//
//	DRISHTI_GOLDEN_UPDATE=1 go test ./internal/sim -run TestGoldenPredictorPolicies -v
var goldenPredictorHashes = map[string]string{
	"name=chrome|drishti=false|place=nil|nocstar=nil|predlat=0|dsc=nil|ssets=0|fixed=|perslice=/605.mcf_s-1554B/c2/pc=false":     "f46156e135cd4c33644dc239f3f436fc34d4d5e5e0768d4f71b52ba86029aebd",
	"name=chrome|drishti=true|place=nil|nocstar=nil|predlat=0|dsc=nil|ssets=0|fixed=|perslice=/605.mcf_s-1554B/c2/pc=false":      "0ade833a9fd2aa4372a5c9f9a4cbc85e258ada05c8ea81fbbcc7b54507cbd239",
	"name=glider|drishti=false|place=nil|nocstar=nil|predlat=0|dsc=nil|ssets=0|fixed=|perslice=/605.mcf_s-1554B/c2/pc=false":     "4fa7a7e94f1a064d3d34cc0a15c568d62309c919545e7e2f233414f367c42406",
	"name=glider|drishti=true|place=nil|nocstar=nil|predlat=0|dsc=nil|ssets=0|fixed=|perslice=/605.mcf_s-1554B/c2/pc=false":      "8cd2852c2e60e7b7e2f2e351a2236e0bfaac871c81237cc8fe283ee3a86e364e",
	"name=leeway|drishti=false|place=nil|nocstar=nil|predlat=0|dsc=nil|ssets=0|fixed=|perslice=/605.mcf_s-1554B/c2/pc=false":     "e4cfde9a95de3d5d7e744264bf7e4f12306b994df55ed17c7e5618cbbeb8f857",
	"name=leeway|drishti=true|place=nil|nocstar=nil|predlat=0|dsc=nil|ssets=0|fixed=|perslice=/605.mcf_s-1554B/c2/pc=false":      "3a0963a3ad46b21aff87fa9075fa08b41fe93c5b24d05a4e07ed65aeecf17ce8",
	"name=perceptron|drishti=false|place=nil|nocstar=nil|predlat=0|dsc=nil|ssets=0|fixed=|perslice=/605.mcf_s-1554B/c2/pc=false": "b1aaf2a06f0d403f9107f4c0c56e0f01b96540240b984e4177aa54fdccb2de77",
	"name=perceptron|drishti=true|place=nil|nocstar=nil|predlat=0|dsc=nil|ssets=0|fixed=|perslice=/605.mcf_s-1554B/c2/pc=false":  "e358ad8b0b4992fcfed6337d84d5fd97a2b4d95766872cdb327cc1c0c4f8fafc",
	"name=sdbp|drishti=false|place=nil|nocstar=nil|predlat=0|dsc=nil|ssets=0|fixed=|perslice=/605.mcf_s-1554B/c2/pc=false":       "5b11c967d98b5d22d5ea04f097399119e87b116d4cf557624722a342af702960",
	"name=sdbp|drishti=true|place=nil|nocstar=nil|predlat=0|dsc=nil|ssets=0|fixed=|perslice=/605.mcf_s-1554B/c2/pc=false":        "0612cb9caeb554a8dee4e1494ea882f8b604afcd9284fc832b4988902f8f332c",
	"name=ship++|drishti=false|place=nil|nocstar=nil|predlat=0|dsc=nil|ssets=0|fixed=|perslice=/605.mcf_s-1554B/c2/pc=false":     "12c1bd1d621a9a424db8f49b83c6685d5eb0d2d74d6365db5b75c64b29101c89",
	"name=ship++|drishti=true|place=nil|nocstar=nil|predlat=0|dsc=nil|ssets=0|fixed=|perslice=/605.mcf_s-1554B/c2/pc=false":      "9bd762c3c31f8725b662c82bb55d48db74a1610404b374dbb753e38c54602b02",
}

// TestGoldenPredictorPolicies is the bit-identity guard for the predictor
// policies outside goldenGrid: ship++, glider, chrome, sdbp, leeway and
// perceptron, each baseline and D-.
func TestGoldenPredictorPolicies(t *testing.T) {
	update := os.Getenv("DRISHTI_GOLDEN_UPDATE") == "1"
	for _, c := range goldenPredictorGrid {
		t.Run(goldenKey(c), func(t *testing.T) {
			t.Parallel()
			got := goldenHash(t, goldenRun(t, c))
			if update {
				t.Logf("GOLDEN\t%q: %q,", goldenKey(c), got)
				return
			}
			want, ok := goldenPredictorHashes[goldenKey(c)]
			if !ok {
				t.Fatalf("no golden hash recorded for %s (got %s)", goldenKey(c), got)
			}
			if got != want {
				t.Fatalf("result drifted from golden:\n got %s\nwant %s", got, want)
			}
		})
	}
}
