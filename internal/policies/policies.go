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
	switch s.Name {
	case "hawkeye", "mockingjay", "ship++", "glider", "chrome",
		"sdbp", "leeway", "perceptron":
		return true
	}
	return false
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

// Geometry describes the sliced LLC the policy attaches to.
type Geometry struct {
	Slices       int
	Cores        int
	SetsPerSlice int
	Ways         int
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

// Build assembles the policy stack. mesh and star are the system
// interconnect models (star may be nil when NOCSTAR is not used).
func Build(spec Spec, g Geometry, mesh *noc.Mesh, star *noc.Star, rnd *stats.Rand) (*Built, error) {
	return Renew(nil, spec, g, mesh, star, rnd)
}

// Renew is Build building into spare, a stack its caller no longer uses
// (nil for none): an lru or srrip stack reuses the spare's per-slice rows
// where they are the same policy at the same geometry, reset to the state
// Build leaves them in (see repl.RenewLRU). Everything else is built
// afresh, drawing from rnd exactly as Build does.
func Renew(spare *Built, spec Spec, g Geometry, mesh *noc.Mesh, star *noc.Star, rnd *stats.Rand) (*Built, error) {
	if g.Slices <= 0 || g.Cores <= 0 || g.SetsPerSlice <= 0 || g.Ways <= 0 {
		return nil, fmt.Errorf("policies: invalid geometry %+v", g)
	}
	b := &Built{Spec: spec, PerSlice: make([]repl.Policy, g.Slices)}

	if spec.SupportsDSCOnly() && spec.dynamicSampler() {
		return buildDynamicDIP(spec, g, rnd, b)
	}
	if !spec.IsPredictorBased() {
		return buildBasic(spare, spec, g, rnd, b)
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

	n := spec.sampledSets(g.SetsPerSlice)
	b.Selectors = make([]sampler.SetSelector, g.Slices)
	for i := range b.Selectors {
		sel, err := buildSelector(spec, g, n, i, rnd.Fork(uint64(i)+101))
		if err != nil {
			return nil, err
		}
		b.Selectors[i] = sel
	}

	dynamic := spec.dynamicSampler()
	switch spec.Name {
	case "hawkeye":
		cfg := hawkeye.Config{Sets: g.SetsPerSlice, Ways: g.Ways, Slices: g.Slices, Cores: g.Cores, SampledSets: n}
		shared, err := hawkeye.NewShared(cfg, fab)
		if err != nil {
			return nil, err
		}
		b.Shared = shared
		for i := range b.PerSlice {
			b.PerSlice[i] = hawkeye.NewSlice(shared, i, b.Selectors[i])
		}
		b.Budget = hawkeye.Budget(cfg, n, dynamic)
	case "mockingjay":
		cfg := mockingjay.Config{Sets: g.SetsPerSlice, Ways: g.Ways, Slices: g.Slices, Cores: g.Cores, SampledSets: n}
		shared, err := mockingjay.NewShared(cfg, fab)
		if err != nil {
			return nil, err
		}
		b.Shared = shared
		for i := range b.PerSlice {
			b.PerSlice[i] = mockingjay.NewSlice(shared, i, b.Selectors[i])
		}
		b.Budget = mockingjay.Budget(cfg, n, dynamic)
	case "ship++":
		cfg := shippp.Config{Sets: g.SetsPerSlice, Ways: g.Ways, Slices: g.Slices, Cores: g.Cores, SampledSets: n}
		shared, err := shippp.NewShared(cfg, fab)
		if err != nil {
			return nil, err
		}
		b.Shared = shared
		for i := range b.PerSlice {
			b.PerSlice[i] = shippp.NewSlice(shared, i, b.Selectors[i])
		}
		b.Budget = shippp.Budget(cfg, n, dynamic)
	case "glider":
		cfg := glider.Config{Sets: g.SetsPerSlice, Ways: g.Ways, Slices: g.Slices, Cores: g.Cores, SampledSets: n}
		shared, err := glider.NewShared(cfg, fab)
		if err != nil {
			return nil, err
		}
		b.Shared = shared
		for i := range b.PerSlice {
			b.PerSlice[i] = glider.NewSlice(shared, i, b.Selectors[i])
		}
		b.Budget = glider.Budget(cfg, n, dynamic)
	case "chrome":
		cfg := chrome.Config{Sets: g.SetsPerSlice, Ways: g.Ways, Slices: g.Slices, Cores: g.Cores}
		shared, err := chrome.NewShared(cfg, fab, rnd.Fork(7))
		if err != nil {
			return nil, err
		}
		b.Shared = shared
		for i := range b.PerSlice {
			b.PerSlice[i] = chrome.NewSlice(shared, i, b.Selectors[i])
		}
		b.Budget = chrome.Budget(cfg, dynamic)
	case "sdbp":
		cfg := sdbp.Config{Sets: g.SetsPerSlice, Ways: g.Ways, Slices: g.Slices, Cores: g.Cores, SampledSets: n}
		shared, err := sdbp.NewShared(cfg, fab)
		if err != nil {
			return nil, err
		}
		b.Shared = shared
		for i := range b.PerSlice {
			b.PerSlice[i] = sdbp.NewSlice(shared, i, b.Selectors[i])
		}
		b.Budget = sdbp.Budget(cfg, n, dynamic)
	case "leeway":
		cfg := leeway.Config{Sets: g.SetsPerSlice, Ways: g.Ways, Slices: g.Slices, Cores: g.Cores, SampledSets: n}
		shared, err := leeway.NewShared(cfg, fab)
		if err != nil {
			return nil, err
		}
		b.Shared = shared
		for i := range b.PerSlice {
			b.PerSlice[i] = leeway.NewSlice(shared, i, b.Selectors[i])
		}
		b.Budget = leeway.Budget(cfg, n, dynamic)
	case "perceptron":
		cfg := perceptron.Config{Sets: g.SetsPerSlice, Ways: g.Ways, Slices: g.Slices, Cores: g.Cores, SampledSets: n}
		shared, err := perceptron.NewShared(cfg, fab)
		if err != nil {
			return nil, err
		}
		b.Shared = shared
		for i := range b.PerSlice {
			b.PerSlice[i] = perceptron.NewSlice(shared, i, b.Selectors[i])
		}
		b.Budget = perceptron.Budget(cfg, n, dynamic)
	default:
		return nil, fmt.Errorf("policies: unknown predictor policy %q", spec.Name)
	}
	return b, nil
}

func buildBasic(spare *Built, spec Spec, g Geometry, rnd *stats.Rand, b *Built) (*Built, error) {
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

func buildSelector(spec Spec, g Geometry, n, slice int, rnd *stats.Rand) (sampler.SetSelector, error) {
	if len(spec.FixedPerSlice) > 0 {
		return sampler.NewFixed(spec.FixedPerSlice[slice%len(spec.FixedPerSlice)]), nil
	}
	if len(spec.FixedSampledSets) > 0 {
		return sampler.NewFixed(spec.FixedSampledSets), nil
	}
	if spec.dynamicSampler() {
		cfg := sampler.DynamicConfig{N: n}.Normalize(g.SetsPerSlice, g.Ways)
		return sampler.NewDynamic(cfg, rnd)
	}
	return sampler.NewStatic(g.SetsPerSlice, n, rnd), nil
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

func buildDynamicDIP(spec Spec, g Geometry, rnd *stats.Rand, b *Built) (*Built, error) {
	n := spec.sampledSets(g.SetsPerSlice)
	b.Selectors = make([]sampler.SetSelector, g.Slices)
	for i := range b.PerSlice {
		sel, err := buildSelector(spec, g, n, i, rnd.Fork(uint64(i)+101))
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
