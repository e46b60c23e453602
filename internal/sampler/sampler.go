// Package sampler implements sampled-set selection for LLC replacement
// policies: the conventional static random selection, a fixed selection (for
// the Table 1 oracle experiments), and Drishti's dynamic sampled cache
// (Enhancement II, Section 4.2), which picks the sets with the highest
// capacity demand using per-set saturating counters.
package sampler

import (
	"fmt"

	"drishti/internal/stats"
)

// SetSelector decides which LLC sets of one slice are sampled sets. The
// owning policy keeps its sampled-cache contents keyed by the selector's
// sample index and must discard them whenever Generation changes.
type SetSelector interface {
	// Name identifies the selector for reports.
	Name() string
	// IsSampled returns the stable sample index of set if it is currently
	// sampled.
	IsSampled(set int) (idx int, ok bool)
	// SampledSets returns the currently sampled sets in index order.
	SampledSets() []int
	// Generation increments every time the sampled-set selection changes.
	Generation() uint64
	// OnAccess feeds the selector one demand access to the slice (for the
	// dynamic monitor). hit reports whether the LLC access hit.
	OnAccess(set int, hit bool)
	// N returns the number of sampled sets.
	N() int
}

// --- static ---------------------------------------------------------------

// Static selects N sets pseudo-randomly once, like Hawkeye and Mockingjay do
// (Section 2).
type Static struct {
	index setIndex
	order []int
	n     int
}

// NewStatic selects n of sets deterministically from rnd.
func NewStatic(sets, n int, rnd *stats.Rand) *Static {
	if n > sets {
		n = sets
	}
	chosen := rnd.Choose(sets, n)
	return newStaticFrom(chosen)
}

// NewFixed selects exactly the given sets (Table 1's oracle cases).
func NewFixed(sets []int) *Static { return newStaticFrom(append([]int(nil), sets...)) }

func newStaticFrom(chosen []int) *Static {
	size := 0
	for _, set := range chosen {
		size = max(size, set+1)
	}
	s := &Static{index: make(setIndex, size), order: chosen, n: len(chosen)}
	s.index.adopt(chosen)
	return s
}

// Name implements SetSelector.
func (s *Static) Name() string { return "static" }

// IsSampled implements SetSelector.
func (s *Static) IsSampled(set int) (int, bool) { return s.index.lookup(set) }

// SampledSets implements SetSelector.
func (s *Static) SampledSets() []int { return s.order }

// Generation implements SetSelector: static selection never changes.
func (s *Static) Generation() uint64 { return 0 }

// OnAccess implements SetSelector (no-op).
func (s *Static) OnAccess(int, bool) {}

// N implements SetSelector.
func (s *Static) N() int { return s.n }

// --- dynamic (Drishti) ------------------------------------------------------

// DynamicConfig parameterizes the dynamic sampled cache. Zero fields take
// the paper's defaults via Normalize.
type DynamicConfig struct {
	Sets             int // LLC sets per slice
	N                int // sampled sets to select
	CounterBits      int // k (paper: 8)
	MonitorLen       int // monitoring interval in slice loads (paper: lines per slice = 32K)
	ActiveLen        int // selection lifetime in slice loads (paper: 4×MonitorLen = 128K)
	UniformThreshold int // max-min below which demand is "uniform" (paper: 100)
}

// Normalize fills defaults for a slice with the given geometry.
func (c DynamicConfig) Normalize(sets, ways int) DynamicConfig {
	if c.Sets == 0 {
		c.Sets = sets
	}
	if c.N == 0 {
		c.N = 16
	}
	if c.CounterBits == 0 {
		c.CounterBits = 8
	}
	if c.MonitorLen == 0 {
		c.MonitorLen = sets * ways
	}
	if c.ActiveLen == 0 {
		c.ActiveLen = 4 * c.MonitorLen
	}
	if c.UniformThreshold == 0 {
		c.UniformThreshold = 100
	}
	return c
}

// Validate reports configuration errors.
func (c DynamicConfig) Validate() error {
	if c.Sets <= 0 || c.N <= 0 || c.N > c.Sets {
		return fmt.Errorf("sampler: invalid dynamic config sets=%d n=%d", c.Sets, c.N)
	}
	if c.CounterBits < 1 || c.CounterBits > 16 {
		return fmt.Errorf("sampler: counter bits %d out of range", c.CounterBits)
	}
	if c.MonitorLen <= 0 || c.ActiveLen <= 0 {
		return fmt.Errorf("sampler: intervals must be positive")
	}
	return nil
}

type dynPhase uint8

const (
	phaseMonitor dynPhase = iota
	phaseActive
)

// Dynamic is Drishti's dynamic sampled cache. Each set has a k-bit
// saturating counter initialized to 2^k/2, incremented on an LLC miss and
// decremented on a hit. After MonitorLen slice loads the N highest-counter
// sets become the sampled sets for ActiveLen loads; then counters reset and
// monitoring repeats. If max−min counter < UniformThreshold the slice has
// uniform capacity demand and selection falls back to random (Section 4.2).
type Dynamic struct {
	cfg     DynamicConfig
	rnd     *stats.Rand
	ctrs    []uint16
	ctrInit uint16
	ctrMax  uint16

	phase     dynPhase
	phaseLeft int

	index      setIndex
	order      []int
	generation uint64

	// Selections and UniformFallbacks are exported for experiment reports.
	Selections       uint64
	UniformFallbacks uint64

	// SampledMisses/UnsampledMisses split demand misses by whether they hit a
	// currently sampled set — the utilization signal the telemetry layer
	// reports (how much of the miss stream the sampled cache actually sees).
	// Churn counts sets newly entering the selection across re-selections
	// (the initial random selection is not churn).
	SampledMisses   uint64
	UnsampledMisses uint64
	Churn           uint64
}

// NewDynamic builds the dynamic selector; the initial selection (before the
// first monitoring interval completes) is random, like the baseline.
func NewDynamic(cfg DynamicConfig, rnd *stats.Rand) (*Dynamic, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	d := &Dynamic{
		cfg:     cfg,
		rnd:     rnd,
		ctrs:    make([]uint16, cfg.Sets),
		index:   make(setIndex, cfg.Sets),
		ctrInit: uint16(1) << (cfg.CounterBits - 1),
		ctrMax:  uint16(1)<<cfg.CounterBits - 1,
	}
	d.resetCounters()
	d.phase = phaseMonitor
	d.phaseLeft = cfg.MonitorLen
	d.adopt(d.rnd.Choose(cfg.Sets, cfg.N))
	return d, nil
}

// MustDynamic is NewDynamic that panics on configuration errors.
func MustDynamic(cfg DynamicConfig, rnd *stats.Rand) *Dynamic {
	d, err := NewDynamic(cfg, rnd)
	if err != nil {
		panic(err)
	}
	return d
}

// Name implements SetSelector.
func (d *Dynamic) Name() string { return "dynamic" }

// IsSampled implements SetSelector.
func (d *Dynamic) IsSampled(set int) (int, bool) { return d.index.lookup(set) }

// SampledSets implements SetSelector.
func (d *Dynamic) SampledSets() []int { return d.order }

// Generation implements SetSelector.
func (d *Dynamic) Generation() uint64 { return d.generation }

// N implements SetSelector.
func (d *Dynamic) N() int { return d.cfg.N }

// Counter exposes the saturating counter of a set (for tests and reports).
func (d *Dynamic) Counter(set int) uint16 { return d.ctrs[set] }

// OnAccess implements SetSelector: drives the monitor state machine.
func (d *Dynamic) OnAccess(set int, hit bool) {
	if !hit {
		if d.index[set] != 0 {
			d.SampledMisses++
		} else {
			d.UnsampledMisses++
		}
	}
	if d.phase == phaseMonitor {
		c := &d.ctrs[set]
		if hit {
			if *c > 0 {
				*c--
			}
		} else if *c < d.ctrMax {
			*c++
		}
	}
	d.phaseLeft--
	if d.phaseLeft > 0 {
		return
	}
	switch d.phase {
	case phaseMonitor:
		d.selectSets()
		d.phase = phaseActive
		d.phaseLeft = d.cfg.ActiveLen
	case phaseActive:
		d.resetCounters()
		d.phase = phaseMonitor
		d.phaseLeft = d.cfg.MonitorLen
	}
}

func (d *Dynamic) resetCounters() {
	for i := range d.ctrs {
		d.ctrs[i] = d.ctrInit
	}
}

func (d *Dynamic) selectSets() {
	d.Selections++
	minC, maxC := d.ctrs[0], d.ctrs[0]
	for _, c := range d.ctrs[1:] {
		if c < minC {
			minC = c
		}
		if c > maxC {
			maxC = c
		}
	}
	if int(maxC-minC) < d.cfg.UniformThreshold {
		// Uniform capacity demand (e.g., lbm): random selection, as the
		// baseline policies do.
		d.UniformFallbacks++
		d.adopt(d.rnd.Choose(d.cfg.Sets, d.cfg.N))
		return
	}
	vals := make([]uint64, len(d.ctrs))
	for i, c := range d.ctrs {
		vals[i] = uint64(c)
	}
	d.adopt(stats.TopK(vals, d.cfg.N))
}

func (d *Dynamic) adopt(sets []int) {
	// Churn counts sets absent from the previous selection; the initial
	// random adoption has no predecessor and does not count.
	if d.generation > 0 {
		for _, s := range sets {
			if d.index[s] == 0 {
				d.Churn++
			}
		}
	}
	d.generation++
	d.order = sets
	clear(d.index)
	d.index.adopt(sets)
}

// setIndex maps a set to its sample index plus one, or to 0 when the set
// is not sampled: one slice load per IsSampled, where a map took a hash
// lookup.
type setIndex []int32

// adopt records sets as sampled, each under its position in sets.
func (x setIndex) adopt(sets []int) {
	for i, s := range sets {
		x[s] = int32(i) + 1
	}
}

// lookup returns set's sample index and whether set is sampled. A set past
// the end of the index (a fixed selection names no set beyond its largest)
// is not sampled.
func (x setIndex) lookup(set int) (int, bool) {
	if set < 0 || set >= len(x) {
		return 0, false
	}
	i := x[set]
	return int(i) - 1, i != 0
}
