// Package oatable provides a bounded open-addressing hash table with uint64
// keys, built for the simulator's hot train/lookup paths (prefetcher tables,
// the PC→slice tracker). Compared to a Go map it allocates nothing in steady
// state: lookups are Mix64-hashed linear probes over flat arrays, values
// live inline, and eviction is explicit — callers bound the entry count and
// either Clear the whole table (the generational flush the prefetchers use),
// EvictFirst one deterministic entry, or Delete a chosen key. Clear is O(1)
// via a generation counter, so a flush costs no more than the insert that
// triggered it.
//
// Tables start small and double geometrically up to the capacity given to
// New, so a table that only ever sees a few dozen keys (one per-core stride
// table tracking a handful of PCs, say) stays a few cache lines rather than
// paying for its worst case. Growth is driven purely by the insert sequence,
// so it is deterministic, and Get/Insert/Clear semantics are independent of
// the current capacity.
package oatable

import (
	"fmt"

	"drishti/internal/stats"
)

// Table is a bounded open-addressing hash table from uint64 keys to inline V
// values. The zero Table is not usable; call New.
type Table[V any] struct {
	mask   uint64
	n      int
	maxCap int
	gen    uint32 // current generation; slots from older generations are free
	keys   []uint64
	gens   []uint32 // gens[i] == gen ⇒ slot i occupied
	vals   []V
}

// initialCap is the starting slot count for tables whose bound is larger.
const initialCap = 256

// New builds a table that can hold up to capacity slots (rounded up to a
// power of two, minimum 8). Callers must keep the live entry count at or
// below half that bound — probe performance and the full-table panic in
// Insert both rely on the table never filling up.
func New[V any](capacity int) *Table[V] { return newTable[V](capacity, initialCap) }

// NewSmall is New for a table that starts at 8 slots, whatever its bound.
// It suits many small tables of which most stay far below their bound,
// such as the histories of sampled sets, which a short run touches a few
// times each. Slot order is a function of the current slot count, so a
// caller that depends on Range or EvictFirst order must keep the
// constructor it has.
func NewSmall[V any](capacity int) *Table[V] { return newTable[V](capacity, 8) }

func newTable[V any](capacity, initial int) *Table[V] {
	c := 8
	for c < capacity {
		c <<= 1
	}
	t := &Table[V]{maxCap: c}
	t.alloc(min(c, initial))
	return t
}

func (t *Table[V]) alloc(c int) {
	t.mask = uint64(c - 1)
	t.gen = 1
	t.keys = make([]uint64, c)
	t.gens = make([]uint32, c)
	t.vals = make([]V, c)
}

// Len returns the number of live entries.
func (t *Table[V]) Len() int { return t.n }

// Cap returns the current slot count (grows up to the bound given to New).
func (t *Table[V]) Cap() int { return len(t.keys) }

// Get returns a pointer to key's value, or nil if absent. The pointer stays
// valid until the table next grows, Clears, or removes any entry.
func (t *Table[V]) Get(key uint64) *V {
	i := stats.Mix64(key) & t.mask
	for {
		if t.gens[i] != t.gen {
			return nil
		}
		if t.keys[i] == key {
			return &t.vals[i]
		}
		i = (i + 1) & t.mask
	}
}

// Insert adds key — which must be absent — and returns a pointer to its
// zeroed value slot, doubling the table first when it is half full and still
// below its bound. It panics if the table is full at its bound: callers are
// expected to limit Len with Clear, Delete or EvictFirst before inserting.
func (t *Table[V]) Insert(key uint64) *V {
	if c := len(t.keys); 2*(t.n+1) > c && c < t.maxCap {
		t.grow()
	}
	return t.insertNoGrow(key)
}

func (t *Table[V]) insertNoGrow(key uint64) *V {
	if t.n >= len(t.keys) {
		panic(fmt.Sprintf("oatable: insert into full table (cap %d)", len(t.keys)))
	}
	i := stats.Mix64(key) & t.mask
	for t.gens[i] == t.gen {
		if t.keys[i] == key {
			panic(fmt.Sprintf("oatable: duplicate insert of key %#x", key))
		}
		i = (i + 1) & t.mask
	}
	t.keys[i] = key
	t.gens[i] = t.gen
	var zero V
	t.vals[i] = zero
	t.n++
	return &t.vals[i]
}

// grow doubles the slot count and re-seats every live entry.
func (t *Table[V]) grow() {
	oldKeys, oldGens, oldVals, oldGen := t.keys, t.gens, t.vals, t.gen
	t.alloc(2 * len(oldKeys))
	t.n = 0
	for i, g := range oldGens {
		if g == oldGen {
			p := t.insertNoGrow(oldKeys[i])
			*p = oldVals[i]
		}
	}
}

// Clear drops every entry in O(1) by advancing the generation; capacity is
// kept. On the (unreachable in practice) generation wraparound it falls back
// to zeroing the slot metadata so stale generations cannot resurrect.
func (t *Table[V]) Clear() {
	t.n = 0
	t.gen++
	if t.gen == 0 {
		for i := range t.gens {
			t.gens[i] = 0
		}
		t.gen = 1
	}
}

// Range calls f for every live entry in slot order (a deterministic order,
// unlike Go map iteration) until f returns false.
func (t *Table[V]) Range(f func(key uint64, v *V) bool) {
	if t.n == 0 {
		return
	}
	for i := range t.keys {
		if t.gens[i] == t.gen && !f(t.keys[i], &t.vals[i]) {
			return
		}
	}
}

// At returns slot i's key and value and whether the slot is live, for
// 0 ≤ i < Cap(). It lets a caller scan the table in slot order with its
// own loop, where Range would cost a callback per entry. The pointer is
// valid until the table next grows, Clears, or removes any entry.
func (t *Table[V]) At(i int) (key uint64, v *V, live bool) {
	return t.keys[i], &t.vals[i], t.gens[i] == t.gen
}

// EvictFirst removes the first live entry in slot order and returns its key
// and value. ok is false when the table is empty. Removal re-probes the
// entries that follow the hole so later lookups keep finding them (standard
// open-addressing backward-shift deletion).
func (t *Table[V]) EvictFirst() (key uint64, val V, ok bool) {
	if t.n == 0 {
		return 0, val, false
	}
	for i := range t.keys {
		if t.gens[i] == t.gen {
			key, val = t.keys[i], t.vals[i]
			t.deleteAt(uint64(i))
			return key, val, true
		}
	}
	return 0, val, false
}

// Delete removes key and reports whether it was present.
func (t *Table[V]) Delete(key uint64) bool {
	for i := stats.Mix64(key) & t.mask; t.gens[i] == t.gen; i = (i + 1) & t.mask {
		if t.keys[i] == key {
			t.deleteAt(i)
			return true
		}
	}
	return false
}

// deleteAt empties slot i and backward-shifts the probe chain after it.
func (t *Table[V]) deleteAt(i uint64) {
	var zero V
	t.gens[i] = t.gen - 1
	t.vals[i] = zero
	t.n--
	// Re-seat every entry in the contiguous run after i: any of them may
	// have probed past slot i and become unreachable through the new hole.
	j := (i + 1) & t.mask
	for t.gens[j] == t.gen {
		k, v := t.keys[j], t.vals[j]
		t.gens[j] = t.gen - 1
		t.vals[j] = zero
		t.n--
		// Re-insert shifts the entry back toward its home slot.
		p := t.insertNoGrow(k)
		*p = v
		j = (j + 1) & t.mask
	}
}
