package cache

import (
	"testing"
	"testing/quick"

	"drishti/internal/mem"
	"drishti/internal/repl"
)

func newLRUCache(t *testing.T, sets, ways int) *Cache {
	t.Helper()
	c, err := New(Config{Name: "t", Sets: sets, Ways: ways}, repl.NewLRU(sets, ways))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func load(block uint64) repl.Access {
	return repl.Access{PC: 0x400000, Block: block, Type: mem.Load}
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"valid", Config{Sets: 8, Ways: 2}, true},
		{"non-power-of-two sets", Config{Sets: 3, Ways: 4}, false},
		{"zero sets", Config{Sets: 0, Ways: 4}, false},
		{"zero ways", Config{Sets: 8, Ways: 0}, false},
		// repl.LRU's 16-bit stamps rely on this bound (see maxWays).
		{"max ways", Config{Sets: 1, Ways: 1 << 15}, true},
		{"too many ways", Config{Sets: 1, Ways: 1<<15 + 1}, false},
	}
	for _, c := range cases {
		if err := c.cfg.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: Validate(%+v) = %v, want ok=%v", c.name, c.cfg, err, c.ok)
		}
	}
	if _, err := New(Config{Sets: 8, Ways: 2}, nil); err == nil {
		t.Fatal("nil policy accepted")
	}
}

func TestMissThenFill(t *testing.T) {
	c := newLRUCache(t, 4, 2)
	hit, _ := c.Access(load(100))
	if hit {
		t.Fatal("empty cache hit")
	}
	c.Fill(load(100), false)
	hit, _ = c.Access(load(100))
	if !hit {
		t.Fatal("filled block missed")
	}
	if c.Stats.Hits != 1 || c.Stats.Misses != 1 || c.Stats.Fills != 1 {
		t.Fatalf("stats %+v", c.Stats)
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	c := newLRUCache(t, 1, 2)
	c.Fill(load(1), false)
	c.Fill(load(2), false)
	c.Access(load(1)) // make 2 the LRU
	ev := c.Fill(load(3), false)
	if !ev.Valid || ev.Block != 2 {
		t.Fatalf("evicted %+v, want block 2", ev)
	}
	if _, ok := c.Probe(1); !ok {
		t.Fatal("block 1 should survive")
	}
}

func TestDirtyWritebackPath(t *testing.T) {
	c := newLRUCache(t, 1, 1)
	c.Fill(repl.Access{Block: 1, Type: mem.RFO}, true)
	ev := c.Fill(load(2), false)
	if !ev.Valid || !ev.Dirty || ev.Block != 1 {
		t.Fatalf("dirty eviction lost: %+v", ev)
	}
	if c.Stats.Writebacks != 1 {
		t.Fatalf("writeback not counted: %+v", c.Stats)
	}
}

func TestRFOHitSetsDirty(t *testing.T) {
	c := newLRUCache(t, 1, 1)
	c.Fill(load(1), false)
	c.Access(repl.Access{Block: 1, Type: mem.RFO})
	ev := c.Fill(load(2), false)
	if !ev.Dirty {
		t.Fatal("RFO hit must mark the line dirty")
	}
}

func TestMarkDirty(t *testing.T) {
	c := newLRUCache(t, 1, 1)
	c.Fill(load(1), false)
	c.MarkDirty(1)
	ev := c.Fill(load(2), false)
	if !ev.Dirty {
		t.Fatal("MarkDirty did not stick")
	}
	c.MarkDirty(42) // absent: must not panic
}

func TestPrefetchBits(t *testing.T) {
	c := newLRUCache(t, 1, 2)
	c.Fill(repl.Access{Block: 1, Type: mem.Prefetch}, false)
	hit, wasPref := c.Access(load(1))
	if !hit || !wasPref {
		t.Fatal("prefetched line should hit with prefetch bit set")
	}
	if c.Stats.PrefHits != 1 {
		t.Fatalf("prefetch hit not counted: %+v", c.Stats)
	}
	// Second demand access: bit consumed.
	_, wasPref = c.Access(load(1))
	if wasPref {
		t.Fatal("prefetch bit should clear after first demand hit")
	}
}

func TestRefillExistingLine(t *testing.T) {
	c := newLRUCache(t, 1, 2)
	c.Fill(load(1), false)
	ev := c.Fill(load(1), true) // refill, now dirty
	if ev.Valid {
		t.Fatal("refill must not evict")
	}
	ev = c.Fill(load(2), false)
	if ev.Valid {
		t.Fatal("way available; no eviction expected")
	}
	ev = c.Fill(load(3), false)
	if !ev.Valid || ev.Block != 1 || !ev.Dirty {
		t.Fatalf("expected dirty eviction of block 1, got %+v", ev)
	}
}

func TestInvalidate(t *testing.T) {
	c := newLRUCache(t, 2, 2)
	c.Fill(repl.Access{Block: 4, Type: mem.RFO}, true)
	dirty, present := c.Invalidate(4, 0)
	if !present || !dirty {
		t.Fatalf("invalidate: dirty=%v present=%v", dirty, present)
	}
	if _, ok := c.Probe(4); ok {
		t.Fatal("block still present after invalidate")
	}
	if _, present := c.Invalidate(4, 0); present {
		t.Fatal("double invalidate reported present")
	}
}

func TestOccupancy(t *testing.T) {
	c := newLRUCache(t, 1, 4)
	if c.Occupancy(0) != 0 {
		t.Fatal("empty set occupancy")
	}
	c.Fill(load(1), false)
	c.Fill(load(2), false)
	if c.Occupancy(0) != 2 {
		t.Fatalf("occupancy %d", c.Occupancy(0))
	}
}

func TestPerSetCountersDemandOnly(t *testing.T) {
	c := newLRUCache(t, 2, 1)
	c.Access(load(0))                                    // demand miss, set 0
	c.Access(repl.Access{Block: 2, Type: mem.Prefetch})  // prefetch miss, set 0
	c.Access(repl.Access{Block: 4, Type: mem.Writeback}) // writeback, set 0
	if c.SetAccesses[0] != 1 || c.SetMisses[0] != 1 {
		t.Fatalf("per-set counters must be demand-only: acc=%d miss=%d",
			c.SetAccesses[0], c.SetMisses[0])
	}
	if c.Stats.Accesses != 3 {
		t.Fatalf("aggregate accesses %d", c.Stats.Accesses)
	}
}

func TestMPKAPerSet(t *testing.T) {
	c := newLRUCache(t, 2, 1)
	for i := 0; i < 10; i++ {
		c.Access(load(uint64(i * 2))) // all set 0, all misses
		c.Fill(load(uint64(i*2)), false)
	}
	mpka := c.MPKAPerSet()
	if mpka[0] <= 0 || mpka[1] != 0 {
		t.Fatalf("MPKA %v", mpka)
	}
}

func TestResetStats(t *testing.T) {
	c := newLRUCache(t, 2, 1)
	c.Access(load(0))
	c.ResetStats()
	if c.Stats.Accesses != 0 || c.SetAccesses[0] != 0 {
		t.Fatal("stats survived reset")
	}
	// Contents must survive reset.
	c.Fill(load(0), false)
	c.ResetStats()
	if _, ok := c.Probe(0); !ok {
		t.Fatal("contents lost on stat reset")
	}
}

// bypassPolicy always bypasses.
type bypassPolicy struct{ repl.LRU }

func (b *bypassPolicy) Victim(int, repl.Access) int { return repl.Bypass }

func TestBypass(t *testing.T) {
	pol := &bypassPolicy{*repl.NewLRU(1, 1)}
	c, err := New(Config{Name: "b", Sets: 1, Ways: 1}, pol)
	if err != nil {
		t.Fatal(err)
	}
	c.Fill(load(1), false) // fills the empty way (no Victim call)
	ev := c.Fill(load(2), false)
	if ev.Valid {
		t.Fatal("bypass must not evict")
	}
	if c.Stats.Bypasses != 1 {
		t.Fatalf("bypass not counted: %+v", c.Stats)
	}
	if _, ok := c.Probe(2); ok {
		t.Fatal("bypassed block was cached")
	}
}

// TestInclusionInvariant checks the structural invariant: after any sequence
// of fills, each block appears at most once and only in its home set.
func TestInclusionInvariant(t *testing.T) {
	check := func(blocks []uint64) bool {
		c := newLRUCache(t, 4, 2)
		for _, b := range blocks {
			b %= 64
			if hit, _ := c.Access(load(b)); !hit {
				c.Fill(load(b), false)
			}
		}
		// Each resident block must probe back to exactly its own set.
		seen := map[uint64]bool{}
		for set := 0; set < 4; set++ {
			for w := 0; w < 2; w++ {
				// probe via public API: iterate candidate blocks
				_ = w
			}
		}
		for b := uint64(0); b < 64; b++ {
			if _, ok := c.Probe(b); ok {
				if seen[b] {
					return false
				}
				seen[b] = true
				if c.SetIndex(b) != int(b%4) {
					return false
				}
			}
		}
		return len(seen) <= 8
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
