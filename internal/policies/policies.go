// Package policies wires replacement policies onto a sliced LLC: it builds
// the predictor fabric, the per-slice sampled-set selectors, any shared
// (banked) predictor state, and one policy instance per slice.
//
// A Spec names the base policy and the Drishti configuration. Spec.Drishti
// is shorthand for the paper's D-<policy> point: per-core-yet-global
// predictor over NOCSTAR plus the dynamic sampled cache with the reduced
// sampled-set counts of Section 4.2. Every knob can also be set explicitly,
// which is how the ablation and design-space experiments are driven.
package policies

import (
	"fmt"

	"drishti/internal/fabric"
	"drishti/internal/noc"
	"drishti/internal/policy/chrome"
	"drishti/internal/policy/glider"
	"drishti/internal/policy/hawkeye"
	"drishti/internal/policy/leeway"
	"drishti/internal/policy/mockingjay"
	"drishti/internal/policy/perceptron"
	"drishti/internal/policy/sdbp"
	"drishti/internal/policy/shippp"
	"drishti/internal/repl"
	"drishti/internal/sampler"
	"drishti/internal/stats"
)

// Spec selects a policy and its Drishti configuration.
type Spec struct {
	// Name is the base policy: lru, random, srrip, brrip, dip, ipv, eva,
	// hawkeye, mockingjay, ship++, glider, chrome, sdbp, leeway,
	// perceptron.
	Name string

	// Drishti applies both enhancements with the paper's defaults.
	Drishti bool

	// Placement overrides the predictor placement (nil = Local, or
	// PerCoreGlobal when Drishti is set).
	Placement *fabric.Placement

	// UseNocstar routes slice↔predictor traffic over the dedicated
	// low-latency interconnect (default: true when Drishti).
	UseNocstar *bool

	// FixedPredLatency forces a constant slice→predictor latency in
	// cycles (Fig 11b sensitivity); 0 = use the interconnect model.
	FixedPredLatency uint32

	// DynamicSampler enables the dynamic sampled cache (default: true
	// when Drishti).
	DynamicSampler *bool

	// SampledSets overrides the per-slice sampled-set count (0 = policy
	// default: baseline counts without Drishti, reduced with).
	SampledSets int

	// FixedSampledSets pins the sampled sets of every slice (Table 1's
	// oracle selection experiments). Overrides DynamicSampler.
	FixedSampledSets []int

	// FixedPerSlice pins a different sampled-set list per slice (Table 1
	// with per-slice MPKA rankings). Overrides FixedSampledSets.
	FixedPerSlice [][]int
}

// DisplayName renders the conventional name (D- prefix when Drishti).
func (s Spec) DisplayName() string {
	if s.Drishti {
		return "d-" + s.Name
	}
	return s.Name
}

// IsPredictorBased reports whether the policy uses a sampled cache and
// reuse predictor (Table 7's prediction-based category).
func (s Spec) IsPredictorBased() bool {
	_, ok := predictors[s.Name]
	return ok
}

// SupportsDSCOnly reports whether the policy takes only Enhancement II
// (dynamic set selection for its dueling sets): the memoryless set-dueling
// policies of Table 7's first row.
func (s Spec) SupportsDSCOnly() bool { return s.Name == "dip" }

// placement resolves the effective predictor placement.
func (s Spec) placement() fabric.Placement {
	if s.Placement != nil {
		return *s.Placement
	}
	if s.Drishti {
		return fabric.PerCoreGlobal
	}
	return fabric.Local
}

// useNocstar resolves the effective interconnect choice.
func (s Spec) useNocstar() bool {
	if s.UseNocstar != nil {
		return *s.UseNocstar
	}
	return s.Drishti
}

// dynamicSampler resolves the effective sampled-set selection strategy.
func (s Spec) dynamicSampler() bool {
	if len(s.FixedSampledSets) > 0 || len(s.FixedPerSlice) > 0 {
		return false
	}
	if s.DynamicSampler != nil {
		return *s.DynamicSampler
	}
	return s.Drishti
}

// sampledSets resolves the per-slice sampled-set count for the base policy.
// Paper defaults (for a 2048-set slice): Hawkeye 64→8, Mockingjay 32→16
// (Section 4.2); the other prediction-based policies follow Hawkeye's
// ratio. Counts scale with the slice's set count so harness-scale machines
// keep the paper's sampling density.
func (s Spec) sampledSets(setsPerSlice int) int {
	if len(s.FixedPerSlice) > 0 {
		return len(s.FixedPerSlice[0])
	}
	if len(s.FixedSampledSets) > 0 {
		return len(s.FixedSampledSets)
	}
	if s.SampledSets > 0 {
		return s.SampledSets
	}
	drishti := s.dynamicSampler()
	base := 64
	switch s.Name {
	case "mockingjay":
		if drishti {
			base = 16
		} else {
			base = 32
		}
	default:
		if drishti {
			base = 8
		}
	}
	n := base * setsPerSlice / 2048
	// Floor: below 8 sampled sets the dynamic top-N selection and the
	// OPTgen history degenerate; full-size slices are unaffected.
	if n < 8 {
		n = 8
	}
	if n > setsPerSlice {
		n = setsPerSlice
	}
	return n
}

// Built is the assembled policy stack for a sliced LLC.
type Built struct {
	Spec      Spec
	PerSlice  []repl.Policy
	Selectors []sampler.SetSelector // nil entries for non-sampled policies
	Fabric    *fabric.Fabric        // nil for non-predictor policies
	Shared    any                   // policy-specific shared state (e.g. *mockingjay.Shared)
	Budget    map[string]int        // per-core storage in bytes
}

// Build assembles the policy stack on the sliced LLC g. mesh and star are
// the system interconnect models (star may be nil when NOCSTAR is not
// used). g.SampledSets is ignored: Build resolves it from spec.
func Build(spec Spec, g repl.Geometry, mesh *noc.Mesh, star *noc.Star, rnd *stats.Rand) (*Built, error) {
	return Renew(nil, spec, g, mesh, star, rnd)
}

// Renew is Build building into spare, a stack its caller no longer uses
// (nil for none): an lru or srrip stack reuses the spare's per-slice rows
// where they are the same policy at the same geometry, reset to the state
// Build leaves them in (see repl.RenewLRU). Everything else is built
// afresh, drawing from rnd exactly as Build does.
//
// Renew is where a predictor policy's geometry is checked, once: every
// dimension positive and the resolved sampled-set count within the slice.
// The policy packages take it as given.
func Renew(spare *Built, spec Spec, g repl.Geometry, mesh *noc.Mesh, star *noc.Star, rnd *stats.Rand) (*Built, error) {
	if g.Slices <= 0 || g.Cores <= 0 || g.SetsPerSlice <= 0 || g.Ways <= 0 {
		return nil, fmt.Errorf("policies: invalid geometry %+v", g)
	}
	b := &Built{Spec: spec, PerSlice: make([]repl.Policy, g.Slices)}

	dip := spec.SupportsDSCOnly() && spec.dynamicSampler()
	pred, isPred := predictors[spec.Name]
	if !dip && !isPred {
		return buildBasic(spare, spec, g, rnd, b)
	}
	g.SampledSets = spec.sampledSets(g.SetsPerSlice)
	if g.SampledSets > g.SetsPerSlice {
		return nil, fmt.Errorf("%s: %d sampled sets exceed %d sets", spec.Name, g.SampledSets, g.SetsPerSlice)
	}
	if dip {
		return buildDynamicDIP(spec, g, rnd, b)
	}

	fab, err := fabric.New(fabric.Config{
		Placement:        spec.placement(),
		Slices:           g.Slices,
		Cores:            g.Cores,
		UseNocstar:       spec.useNocstar(),
		Mesh:             mesh,
		Star:             star,
		FixedPredLatency: spec.FixedPredLatency,
	})
	if err != nil {
		return nil, err
	}
	b.Fabric = fab

	b.Selectors = make([]sampler.SetSelector, g.Slices)
	for i := range b.Selectors {
		sel, err := buildSelector(spec, g, i, rnd.Fork(uint64(i)+101))
		if err != nil {
			return nil, err
		}
		b.Selectors[i] = sel
	}
	b.Shared = pred.build(g, fab, rnd, b.Selectors, b.PerSlice)
	b.Budget = pred.budget(g, spec.dynamicSampler())
	return b, nil
}

// predictor is one sampled-cache + reuse-predictor policy (Table 7's
// prediction-based category): build makes its shared, fabric-banked state
// and one instance per slice over that slice's selector, and budget reports
// its per-core storage in bytes (Table 3).
type predictor struct {
	build  func(g repl.Geometry, fab *fabric.Fabric, rnd *stats.Rand, sels []sampler.SetSelector, perSlice []repl.Policy) (shared any)
	budget func(g repl.Geometry, dynamic bool) map[string]int
}

// predictors is every predictor policy Build accepts, by Spec.Name.
var predictors = map[string]predictor{
	"hawkeye":    banked(unseeded(hawkeye.NewShared), hawkeye.NewSlice, hawkeye.Budget),
	"mockingjay": banked(unseeded(mockingjay.NewShared), mockingjay.NewSlice, mockingjay.Budget),
	"ship++":     banked(unseeded(shippp.NewShared), shippp.NewSlice, shippp.Budget),
	"glider":     banked(unseeded(glider.NewShared), glider.NewSlice, glider.Budget),
	"chrome": banked(func(g repl.Geometry, fab *fabric.Fabric, rnd *stats.Rand) *chrome.Shared {
		return chrome.NewShared(g, fab, rnd.Fork(7))
	}, chrome.NewSlice, chrome.Budget),
	"sdbp":       banked(unseeded(sdbp.NewShared), sdbp.NewSlice, sdbp.Budget),
	"leeway":     banked(unseeded(leeway.NewShared), leeway.NewSlice, leeway.Budget),
	"perceptron": banked(unseeded(perceptron.NewShared), perceptron.NewSlice, perceptron.Budget),
}

// banked makes a predictor from a policy package's constructors: newShared
// builds the banked state, newSlice one slice's instance over it.
func banked[S any, P repl.Policy](
	newShared func(repl.Geometry, *fabric.Fabric, *stats.Rand) *S,
	newSlice func(*S, int, sampler.SetSelector) P,
	budget func(repl.Geometry, bool) map[string]int,
) predictor {
	build := func(g repl.Geometry, fab *fabric.Fabric, rnd *stats.Rand, sels []sampler.SetSelector, perSlice []repl.Policy) any {
		shared := newShared(g, fab, rnd)
		for i := range perSlice {
			perSlice[i] = newSlice(shared, i, sels[i])
		}
		return shared
	}
	return predictor{build: build, budget: budget}
}

// unseeded adapts a newShared that draws nothing from the build's Rand.
func unseeded[S any](newShared func(repl.Geometry, *fabric.Fabric) *S) func(repl.Geometry, *fabric.Fabric, *stats.Rand) *S {
	return func(g repl.Geometry, fab *fabric.Fabric, _ *stats.Rand) *S { return newShared(g, fab) }
}

func buildBasic(spare *Built, spec Spec, g repl.Geometry, rnd *stats.Rand, b *Built) (*Built, error) {
	for i := range b.PerSlice {
		var old repl.Policy
		if spare != nil && i < len(spare.PerSlice) {
			old = spare.PerSlice[i]
		}
		switch spec.Name {
		case "lru":
			b.PerSlice[i] = repl.RenewLRU(old, g.SetsPerSlice, g.Ways)
		case "random":
			b.PerSlice[i] = repl.NewRandom(g.Ways, rnd.Uint64())
		case "srrip":
			b.PerSlice[i] = repl.RenewSRRIP(old, g.SetsPerSlice, g.Ways)
		case "brrip":
			b.PerSlice[i] = repl.NewBRRIP(g.SetsPerSlice, g.Ways)
		case "dip":
			b.PerSlice[i] = repl.NewDIP(g.SetsPerSlice, g.Ways, rnd.Uint64())
		case "ipv":
			b.PerSlice[i] = repl.NewIPV(g.SetsPerSlice, g.Ways)
		case "eva":
			b.PerSlice[i] = repl.NewEVA(g.SetsPerSlice, g.Ways)
		default:
			return nil, fmt.Errorf("policies: unknown policy %q", spec.Name)
		}
	}
	b.Budget = map[string]int{}
	return b, nil
}

func buildSelector(spec Spec, g repl.Geometry, slice int, rnd *stats.Rand) (sampler.SetSelector, error) {
	if len(spec.FixedPerSlice) > 0 {
		return sampler.NewFixed(spec.FixedPerSlice[slice%len(spec.FixedPerSlice)]), nil
	}
	if len(spec.FixedSampledSets) > 0 {
		return sampler.NewFixed(spec.FixedSampledSets), nil
	}
	if spec.dynamicSampler() {
		cfg := sampler.DynamicConfig{N: g.SampledSets}.Normalize(g.SetsPerSlice, g.Ways)
		return sampler.NewDynamic(cfg, rnd)
	}
	return sampler.NewStatic(g.SetsPerSlice, g.SampledSets, rnd), nil
}

// KnownPolicies lists the policy names Build accepts.
func KnownPolicies() []string {
	return []string{
		"lru", "random", "srrip", "brrip", "dip", "ipv", "eva",
		"hawkeye", "mockingjay", "ship++", "glider", "chrome",
		"sdbp", "leeway", "perceptron",
	}
}

// dynamicDIP is DIP whose dueling leader sets come from Drishti's dynamic
// sampled cache: the two teams duel on the highest-capacity-demand sets.
type dynamicDIP struct {
	*repl.DIP
	sel sampler.SetSelector
	gen uint64
}

// OnAccess implements repl.Observer: feeds the selector and re-teams the
// leaders when the selection changes.
func (d *dynamicDIP) OnAccess(set int, a repl.Access, hit bool) {
	if a.Type.IsDemand() {
		d.sel.OnAccess(set, hit)
	}
	if g := d.sel.Generation(); g != d.gen {
		d.gen = g
		sets := d.sel.SampledSets()
		half := len(sets) / 2
		d.SetLeaders(sets[:half], sets[half:])
	}
	d.DIP.OnAccess(set, a, hit)
}

func buildDynamicDIP(spec Spec, g repl.Geometry, rnd *stats.Rand, b *Built) (*Built, error) {
	b.Selectors = make([]sampler.SetSelector, g.Slices)
	for i := range b.PerSlice {
		sel, err := buildSelector(spec, g, i, rnd.Fork(uint64(i)+101))
		if err != nil {
			return nil, err
		}
		b.Selectors[i] = sel
		d := &dynamicDIP{DIP: repl.NewDIP(g.SetsPerSlice, g.Ways, rnd.Uint64()), sel: sel, gen: sel.Generation()}
		sets := sel.SampledSets()
		half := len(sets) / 2
		d.SetLeaders(sets[:half], sets[half:])
		b.PerSlice[i] = d
	}
	b.Budget = map[string]int{"saturating-counters": g.SetsPerSlice}
	return b, nil
}

// BoolPtr is a convenience for Spec literal construction.
func BoolPtr(v bool) *bool { return &v }

// PlacementPtr is a convenience for Spec literal construction.
func PlacementPtr(p fabric.Placement) *fabric.Placement { return &p }
