package oatable

import (
	"testing"

	"drishti/internal/stats"
)

func TestBasicInsertGet(t *testing.T) {
	tb := New[int](64)
	if tb.Get(1) != nil {
		t.Fatal("empty table returned a value")
	}
	*tb.Insert(1) = 10
	*tb.Insert(2) = 20
	if v := tb.Get(1); v == nil || *v != 10 {
		t.Fatalf("Get(1) = %v", v)
	}
	if v := tb.Get(2); v == nil || *v != 20 {
		t.Fatalf("Get(2) = %v", v)
	}
	if tb.Get(3) != nil {
		t.Fatal("absent key returned a value")
	}
	if tb.Len() != 2 {
		t.Fatalf("Len = %d", tb.Len())
	}
}

// collidingKeys returns n distinct keys whose Mix64 hashes all land on the
// same slot of a table with the given mask, forcing linear-probe chains.
func collidingKeys(mask uint64, n int) []uint64 {
	var out []uint64
	want := stats.Mix64(0xdead) & mask
	for k := uint64(0); len(out) < n; k++ {
		if stats.Mix64(k)&mask == want {
			out = append(out, k)
		}
	}
	return out
}

func TestCollisionChains(t *testing.T) {
	tb := New[uint64](16)
	keys := collidingKeys(uint64(tb.Cap()-1), 6)
	for i, k := range keys {
		*tb.Insert(k) = uint64(i)
	}
	for i, k := range keys {
		if v := tb.Get(k); v == nil || *v != uint64(i) {
			t.Fatalf("colliding key %#x lost (got %v)", k, v)
		}
	}
}

// TestProbeWraparound fills the last slots of the array so probe chains must
// wrap from the top of the table back to slot 0.
func TestProbeWraparound(t *testing.T) {
	tb := New[int](8)
	mask := uint64(tb.Cap() - 1)
	// Find keys hashing to the LAST slot; their chains wrap to index 0.
	var keys []uint64
	for k := uint64(0); len(keys) < 3; k++ {
		if stats.Mix64(k)&mask == mask {
			keys = append(keys, k)
		}
	}
	for i, k := range keys {
		*tb.Insert(k) = i + 100
	}
	for i, k := range keys {
		if v := tb.Get(k); v == nil || *v != i+100 {
			t.Fatalf("wrapped key %#x lost (got %v)", k, v)
		}
	}
}

func TestClearDropsEverything(t *testing.T) {
	tb := New[int](64)
	for k := uint64(0); k < 20; k++ {
		*tb.Insert(k) = int(k)
	}
	tb.Clear()
	if tb.Len() != 0 {
		t.Fatalf("Len after Clear = %d", tb.Len())
	}
	for k := uint64(0); k < 20; k++ {
		if tb.Get(k) != nil {
			t.Fatalf("key %d survived Clear", k)
		}
	}
	// The table stays usable and re-inserting yields zeroed slots.
	if v := tb.Insert(5); *v != 0 {
		t.Fatalf("slot not zeroed after Clear: %d", *v)
	}
}

// TestClearGenerationWraparound forces the uint32 generation counter to wrap
// and checks that old entries cannot resurrect.
func TestClearGenerationWraparound(t *testing.T) {
	tb := New[int](8)
	*tb.Insert(7) = 1
	tb.gen = ^uint32(0) // jump to the last generation
	// Re-tag the live entry so it is visible in this generation.
	for i := range tb.gens {
		if tb.keys[i] == 7 && tb.gens[i] != 0 {
			tb.gens[i] = tb.gen
		}
	}
	tb.Clear() // wraps: gen must reset and metadata must be zeroed
	if tb.gen == 0 {
		t.Fatal("generation stayed at 0")
	}
	if tb.Len() != 0 || tb.Get(7) != nil {
		t.Fatal("entry resurrected across generation wraparound")
	}
	*tb.Insert(7) = 2
	if v := tb.Get(7); v == nil || *v != 2 {
		t.Fatal("table unusable after wraparound")
	}
}

func TestEvictFirstOrderAndBackwardShift(t *testing.T) {
	tb := New[uint64](16)
	keys := collidingKeys(uint64(tb.Cap()-1), 4)
	for i, k := range keys {
		*tb.Insert(k) = uint64(i)
	}
	// EvictFirst removes the entry in the lowest occupied slot — the head of
	// the collision chain — and the rest must remain reachable.
	k0, v0, ok := tb.EvictFirst()
	if !ok || k0 != keys[0] || v0 != 0 {
		t.Fatalf("EvictFirst = (%#x, %d, %v), want (%#x, 0, true)", k0, v0, ok, keys[0])
	}
	if tb.Len() != 3 {
		t.Fatalf("Len after evict = %d", tb.Len())
	}
	for i := 1; i < len(keys); i++ {
		if v := tb.Get(keys[i]); v == nil || *v != uint64(i) {
			t.Fatalf("chain entry %#x unreachable after backward shift (got %v)", keys[i], v)
		}
	}
	if tb.Get(keys[0]) != nil {
		t.Fatal("evicted key still present")
	}
}

func TestEvictFirstEmpty(t *testing.T) {
	tb := New[int](8)
	if _, _, ok := tb.EvictFirst(); ok {
		t.Fatal("EvictFirst on empty table reported an entry")
	}
}

func TestEvictUntilEmpty(t *testing.T) {
	tb := New[int](32)
	for k := uint64(0); k < 12; k++ {
		*tb.Insert(k) = int(k)
	}
	seen := map[uint64]bool{}
	for {
		k, _, ok := tb.EvictFirst()
		if !ok {
			break
		}
		if seen[k] {
			t.Fatalf("key %d evicted twice", k)
		}
		seen[k] = true
	}
	if len(seen) != 12 || tb.Len() != 0 {
		t.Fatalf("evicted %d of 12, Len=%d", len(seen), tb.Len())
	}
}

func TestRangeSlotOrderDeterministic(t *testing.T) {
	mk := func() []uint64 {
		tb := New[int](64)
		for k := uint64(100); k < 120; k++ {
			*tb.Insert(k) = int(k)
		}
		var order []uint64
		tb.Range(func(key uint64, _ *int) bool {
			order = append(order, key)
			return true
		})
		return order
	}
	a, b := mk(), mk()
	if len(a) != 20 || len(b) != 20 {
		t.Fatalf("Range visited %d/%d entries", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("Range order differs at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestRangeEarlyStop(t *testing.T) {
	tb := New[int](32)
	for k := uint64(0); k < 10; k++ {
		tb.Insert(k)
	}
	n := 0
	tb.Range(func(uint64, *int) bool { n++; return n < 3 })
	if n != 3 {
		t.Fatalf("Range visited %d entries after early stop", n)
	}
}

// TestLazyGrowth: tables start small, double under load, and never exceed
// the bound given to New; entries survive every growth step.
func TestLazyGrowth(t *testing.T) {
	tb := New[uint64](1 << 12)
	if tb.Cap() != initialCap {
		t.Fatalf("fresh table cap = %d, want %d", tb.Cap(), initialCap)
	}
	for k := uint64(0); k < 1<<11; k++ {
		*tb.Insert(k) = k * 3
	}
	if tb.Cap() != 1<<12 {
		t.Fatalf("cap after %d inserts = %d, want %d", 1<<11, tb.Cap(), 1<<12)
	}
	for k := uint64(0); k < 1<<11; k++ {
		if v := tb.Get(k); v == nil || *v != k*3 {
			t.Fatalf("key %d lost across growth (got %v)", k, v)
		}
	}
	// Clear keeps capacity: steady-state flushes never re-grow.
	tb.Clear()
	if tb.Cap() != 1<<12 {
		t.Fatalf("Clear changed capacity to %d", tb.Cap())
	}
}

// TestNewSmallStartsAtEight: NewSmall starts at 8 slots whatever its
// bound, and grows like New up to that bound.
func TestNewSmallStartsAtEight(t *testing.T) {
	tb := NewSmall[uint64](256)
	if tb.Cap() != 8 {
		t.Fatalf("fresh NewSmall cap = %d, want 8", tb.Cap())
	}
	for k := uint64(0); k < 128; k++ {
		*tb.Insert(k) = k + 1
	}
	if tb.Cap() != 256 {
		t.Fatalf("cap after 128 inserts = %d, want 256", tb.Cap())
	}
	for k := uint64(0); k < 128; k++ {
		if v := tb.Get(k); v == nil || *v != k+1 {
			t.Fatalf("key %d lost across growth (got %v)", k, v)
		}
	}
}

func TestSmallBoundStartsAtBound(t *testing.T) {
	tb := New[int](16)
	if tb.Cap() != 16 {
		t.Fatalf("cap = %d, want 16", tb.Cap())
	}
}

func TestInsertDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate insert did not panic")
		}
	}()
	tb := New[int](8)
	tb.Insert(1)
	tb.Insert(1)
}

func TestInsertFullPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("overfull insert did not panic")
		}
	}()
	tb := New[int](8)
	for k := uint64(0); k < 9; k++ {
		tb.Insert(k)
	}
}
