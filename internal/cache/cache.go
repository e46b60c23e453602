// Package cache implements a generic set-associative cache with pluggable
// replacement, dirty-line tracking, and per-set statistics. It is used for
// L1D, L2, and each LLC slice.
//
// Storage is struct-of-arrays: one flat []uint64 of tags plus one packed
// flag byte per line. A 16-way probe therefore scans two cache lines of tag
// words instead of sixteen multi-word line structs, and the common hit is
// resolved in one comparison via a per-set MRU way hint. This layout is a
// pure optimization — every operation behaves exactly as the earlier
// array-of-structs implementation did.
package cache

import (
	"fmt"

	"drishti/internal/mem"
	"drishti/internal/repl"
)

// Packed per-line flag bits (the meta array).
const (
	metaValid    = 1 << 0
	metaDirty    = 1 << 1
	metaPrefetch = 1 << 2 // filled by a prefetch and not yet demanded
)

// invalidTag marks an empty way in the tag array. Tags are full block
// addresses (byte address >> mem.BlockShift), so ^uint64(0) can never be a
// real block and invalid ways can stay in the tag scan without a separate
// valid check.
const invalidTag = ^uint64(0)

// Stats aggregates cache-level counters.
type Stats struct {
	Accesses       uint64
	Hits           uint64
	Misses         uint64
	DemandAccesses uint64
	DemandMisses   uint64
	Fills          uint64
	Bypasses       uint64
	Evictions      uint64
	Writebacks     uint64 // dirty evictions handed to the next level
	PrefHits       uint64 // demand hits on prefetched lines
}

// Config sizes a cache.
type Config struct {
	Name string
	Sets int
	Ways int
}

// maxWays is the largest associativity Validate accepts.
const maxWays = 1 << 15

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Sets <= 0 || c.Ways <= 0 {
		return fmt.Errorf("cache %q: sets and ways must be positive (got %d×%d)", c.Name, c.Sets, c.Ways)
	}
	if c.Sets&(c.Sets-1) != 0 {
		return fmt.Errorf("cache %q: sets must be a power of two (got %d)", c.Name, c.Sets)
	}
	// repl.LRU's 16-bit per-set stamps need the bound: a renumbered row
	// must leave its touch counter headroom.
	if c.Ways > maxWays {
		return fmt.Errorf("cache %q: at most %d ways supported (got %d)", c.Name, maxWays, c.Ways)
	}
	return nil
}

// Cache is a single set-associative cache array.
type Cache struct {
	cfg     Config
	tags    []uint64 // sets×ways block addresses; invalidTag = empty way
	meta    []uint8  // sets×ways packed valid/dirty/prefetch bits
	mru     []uint16 // per-set most-recently-touched way, probed first
	valid   []uint16 // per-set valid-line count; ==ways ⇒ no invalid-way scan
	pol     repl.Policy
	obs     repl.Observer // optional view of pol
	lru     *repl.LRU     // set iff pol is exactly *repl.LRU (devirtualized)
	srrip   *repl.SRRIP   // set iff pol is exactly *repl.SRRIP
	setMask uint64
	ways    int

	// Per-set counters, used by Fig 5 (MPKA per set) and by the dynamic
	// sampled cache's saturating-counter monitor.
	SetAccesses []uint64
	SetMisses   []uint64

	Stats Stats
}

// New builds a cache with the given replacement policy.
func New(cfg Config, pol repl.Policy) (*Cache, error) { return Renew(nil, cfg, pol) }

// Renew is New building into spare, a cache its caller no longer uses (nil
// for none). A spare of the same geometry keeps its arrays, reset to the
// state New leaves them in, so the cache Renew returns behaves exactly as a
// fresh one; any other spare is ignored. spare must not be used again.
func Renew(spare *Cache, cfg Config, pol repl.Policy) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if pol == nil {
		return nil, fmt.Errorf("cache %q: nil policy", cfg.Name)
	}
	c := spare
	if c == nil || c.cfg.Sets != cfg.Sets || c.cfg.Ways != cfg.Ways {
		c = &Cache{
			tags:        make([]uint64, cfg.Sets*cfg.Ways),
			meta:        make([]uint8, cfg.Sets*cfg.Ways),
			mru:         make([]uint16, cfg.Sets),
			valid:       make([]uint16, cfg.Sets),
			SetAccesses: make([]uint64, cfg.Sets),
			SetMisses:   make([]uint64, cfg.Sets),
		}
	} else {
		clear(c.meta)
		clear(c.mru)
		clear(c.valid)
		clear(c.SetAccesses)
		clear(c.SetMisses)
	}
	*c = Cache{
		cfg:         cfg,
		tags:        c.tags,
		meta:        c.meta,
		mru:         c.mru,
		valid:       c.valid,
		pol:         pol,
		setMask:     uint64(cfg.Sets - 1),
		ways:        cfg.Ways,
		SetAccesses: c.SetAccesses,
		SetMisses:   c.SetMisses,
	}
	for i := range c.tags {
		c.tags[i] = invalidTag
	}
	if obs, ok := pol.(repl.Observer); ok {
		c.obs = obs
	}
	// The private caches always run the stock LRU/SRRIP policies, whose
	// callbacks are one or two stores. Calling them through concrete
	// pointers lets those callbacks inline into the access path; the
	// interface dispatch remains for every other policy. Note the asserted
	// types are exact: *BRRIP (which embeds SRRIP but overrides OnFill) and
	// *DIP do not match and keep the generic path.
	switch p := pol.(type) {
	case *repl.LRU:
		c.lru = p
	case *repl.SRRIP:
		c.srrip = p
	}
	return c, nil
}

// polOnHit dispatches Policy.OnHit, devirtualized for LRU/SRRIP.
func (c *Cache) polOnHit(set, way int, a repl.Access) {
	switch {
	case c.lru != nil:
		c.lru.OnHit(set, way, a)
	case c.srrip != nil:
		c.srrip.OnHit(set, way, a)
	default:
		c.pol.OnHit(set, way, a)
	}
}

// polOnFill dispatches Policy.OnFill, devirtualized for LRU/SRRIP.
func (c *Cache) polOnFill(set, way int, a repl.Access) {
	switch {
	case c.lru != nil:
		c.lru.OnFill(set, way, a)
	case c.srrip != nil:
		c.srrip.OnFill(set, way, a)
	default:
		c.pol.OnFill(set, way, a)
	}
}

// polOnEvict dispatches Policy.OnEvict, devirtualized for LRU/SRRIP.
func (c *Cache) polOnEvict(set, way int, block, cycle uint64) {
	switch {
	case c.lru != nil: // LRU.OnEvict is a no-op
	case c.srrip != nil:
		c.srrip.OnEvict(set, way, block, cycle)
	default:
		c.pol.OnEvict(set, way, block, cycle)
	}
}

// polVictim dispatches Policy.Victim, devirtualized for LRU/SRRIP.
func (c *Cache) polVictim(set int, a repl.Access) int {
	switch {
	case c.lru != nil:
		return c.lru.Victim(set, a)
	case c.srrip != nil:
		return c.srrip.Victim(set, a)
	default:
		return c.pol.Victim(set, a)
	}
}

// MustNew is New that panics on configuration errors.
func MustNew(cfg Config, pol repl.Policy) *Cache {
	c, err := New(cfg, pol)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the cache configuration.
func (c *Cache) Config() Config { return c.cfg }

// Policy returns the replacement policy instance.
func (c *Cache) Policy() repl.Policy { return c.pol }

// SetIndex maps a block address to its set.
func (c *Cache) SetIndex(block uint64) int { return int(block & c.setMask) }

// probeSet looks block up within set. The MRU hint resolves the common
// hit-again case in one comparison; tags are unique within a set, so the
// hint can never disagree with the fallback scan.
func (c *Cache) probeSet(set int, block uint64) (way int, ok bool) {
	base := set * c.ways
	if m := int(c.mru[set]); c.tags[base+m] == block {
		return m, true
	}
	for w, tag := range c.tags[base : base+c.ways] {
		if tag == block {
			return w, true
		}
	}
	return 0, false
}

// Probe looks up block without side effects.
func (c *Cache) Probe(block uint64) (way int, ok bool) {
	return c.probeSet(c.SetIndex(block), block)
}

// Evicted describes the line displaced by a fill.
type Evicted struct {
	Block uint64
	Dirty bool
	Valid bool // false when the fill used an empty way or was bypassed
}

// Access performs the full lookup path for a demand or prefetch access a:
// observe, hit-or-miss, and per-set accounting. It does NOT fill on a miss —
// the hierarchy decides what to fill after the lower levels respond. Returns
// whether it hit and, on a hit, whether the line was a not-yet-demanded
// prefetch.
func (c *Cache) Access(a repl.Access) (hit bool, wasPrefetch bool) {
	a.Set = c.SetIndex(a.Block)
	way, ok := c.probeSet(a.Set, a.Block)
	if c.obs != nil {
		c.obs.OnAccess(a.Set, a, ok)
	}
	c.Stats.Accesses++
	demand := a.Type.IsDemand()
	if demand {
		c.Stats.DemandAccesses++
		// Per-set counters track demand traffic only: that is what the
		// Fig 5 MPKA study and the dynamic sampled cache monitor observe.
		c.SetAccesses[a.Set]++
	}
	if !ok {
		c.Stats.Misses++
		if demand {
			c.Stats.DemandMisses++
			c.SetMisses[a.Set]++
		}
		return false, false
	}
	c.Stats.Hits++
	i := a.Set*c.ways + way
	wasPref := c.meta[i]&metaPrefetch != 0
	if wasPref && demand {
		c.Stats.PrefHits++
		c.meta[i] &^= metaPrefetch
	}
	if a.Type == mem.RFO || a.Type == mem.Writeback {
		c.meta[i] |= metaDirty
	}
	c.mru[a.Set] = uint16(way)
	c.polOnHit(a.Set, way, a)
	return true, wasPref
}

// AccessMiss is Access for a block the caller has just probed and found
// absent, skipping the redundant second probe. The caller must guarantee
// nothing was filled into this cache since that probe. It runs exactly the
// miss half of Access: observer callback and statistics.
func (c *Cache) AccessMiss(a repl.Access) {
	a.Set = c.SetIndex(a.Block)
	if c.obs != nil {
		c.obs.OnAccess(a.Set, a, false)
	}
	c.Stats.Accesses++
	c.Stats.Misses++
	if a.Type.IsDemand() {
		c.Stats.DemandAccesses++
		c.SetAccesses[a.Set]++
		c.Stats.DemandMisses++
		c.SetMisses[a.Set]++
	}
}

// Fill installs block for access a, evicting a victim if needed. dirty marks
// the installed line dirty (writeback fills). Returns the evicted line, if
// any; a bypassed fill returns Evicted{} with Valid=false and installs
// nothing.
func (c *Cache) Fill(a repl.Access, dirty bool) Evicted {
	a.Set = c.SetIndex(a.Block)
	// Refill of a line that is already present (e.g., a demand fill racing a
	// prefetch fill in the same quantum): just update flags.
	if way, ok := c.probeSet(a.Set, a.Block); ok {
		if dirty {
			c.meta[a.Set*c.ways+way] |= metaDirty
		}
		return Evicted{}
	}
	return c.fillAbsent(a, dirty)
}

// FillMiss is Fill for a block the caller knows is absent — the demand path,
// where Access just missed and only invalidations (which never install
// lines) can have run since. It skips Fill's presence re-probe; everything
// else, including the invalid-way preference and every policy callback, is
// identical.
func (c *Cache) FillMiss(a repl.Access, dirty bool) Evicted {
	a.Set = c.SetIndex(a.Block)
	return c.fillAbsent(a, dirty)
}

func (c *Cache) fillAbsent(a repl.Access, dirty bool) Evicted {
	base := a.Set * c.ways
	// Prefer an invalid way, lowest index first. The per-set valid count
	// skips the scan once the set is full — the steady state everywhere.
	victim := -1
	if int(c.valid[a.Set]) < c.ways {
		for w := 0; w < c.ways; w++ {
			if c.meta[base+w]&metaValid == 0 {
				victim = w
				break
			}
		}
	}
	if victim < 0 {
		victim = c.polVictim(a.Set, a)
		if victim == repl.Bypass {
			c.Stats.Bypasses++
			return Evicted{}
		}
		if victim < 0 || victim >= c.ways {
			panic(fmt.Sprintf("cache %q: policy %s returned invalid victim %d", c.cfg.Name, c.pol.Name(), victim))
		}
	}
	var ev Evicted
	i := base + victim
	if c.meta[i]&metaValid != 0 {
		ev = Evicted{Block: c.tags[i], Dirty: c.meta[i]&metaDirty != 0, Valid: true}
		c.Stats.Evictions++
		if ev.Dirty {
			c.Stats.Writebacks++
		}
		c.polOnEvict(a.Set, victim, c.tags[i], a.Cycle)
	} else {
		c.valid[a.Set]++
	}
	c.tags[i] = a.Block
	m := uint8(metaValid)
	if dirty {
		m |= metaDirty
	}
	if a.Type == mem.Prefetch {
		m |= metaPrefetch
	}
	c.meta[i] = m
	c.mru[a.Set] = uint16(victim)
	c.Stats.Fills++
	c.polOnFill(a.Set, victim, a)
	return ev
}

// MarkDirty sets the dirty bit on block if present (store hit path).
func (c *Cache) MarkDirty(block uint64) {
	set := c.SetIndex(block)
	if way, ok := c.probeSet(set, block); ok {
		c.meta[set*c.ways+way] |= metaDirty
	}
}

// Invalidate removes block if present, returning whether it was dirty.
// cycle is when the invalidation happens; the policy's OnEvict gets it.
func (c *Cache) Invalidate(block, cycle uint64) (wasDirty, present bool) {
	set := c.SetIndex(block)
	way, ok := c.probeSet(set, block)
	if !ok {
		return false, false
	}
	i := set*c.ways + way
	dirty := c.meta[i]&metaDirty != 0
	c.polOnEvict(set, way, c.tags[i], cycle)
	c.tags[i] = invalidTag
	c.meta[i] = 0
	c.valid[set]--
	return dirty, true
}

// Occupancy returns the number of valid lines in set.
func (c *Cache) Occupancy(set int) int { return int(c.valid[set]) }

// ResetStats clears aggregate and per-set counters (end of warmup).
func (c *Cache) ResetStats() {
	c.Stats = Stats{}
	for i := range c.SetAccesses {
		c.SetAccesses[i] = 0
		c.SetMisses[i] = 0
	}
}

// MPKAPerSet returns misses per kilo-access for each set (Fig 5): the
// per-set miss count normalized to the cache's total accesses in thousands.
func (c *Cache) MPKAPerSet() []float64 {
	out := make([]float64, c.cfg.Sets)
	total := float64(c.Stats.Accesses) / 1000.0
	if total == 0 {
		return out
	}
	for i, m := range c.SetMisses {
		out[i] = float64(m) / total
	}
	return out
}
