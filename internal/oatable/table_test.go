package oatable

import (
	"math/rand/v2"
	"testing"
)

// TestTableMatchesMap runs the table against a Go map through the same
// random inserts, lookups, deletes (present and absent), EvictFirsts and
// Clears over a small key space, so probe chains collide, wrap and get
// backward-shifted, and the table grows from its initial capacity to its
// bound. After every operation Len and the looked-up key must agree with
// the map, and every so often Range must visit exactly the map's entries.
func TestTableMatchesMap(t *testing.T) {
	const bound = 1024
	tb, ref := New[int](bound), map[uint64]int{}
	rng := rand.New(rand.NewPCG(9, 9))
	deleted := 0
	for i := 0; i < 200_000; i++ {
		key := uint64(rng.IntN(3 * bound / 4))
		switch r := rng.IntN(100); {
		case r < 45:
			if _, ok := ref[key]; !ok && len(ref) < bound/2 {
				*tb.Insert(key) = i
				ref[key] = i
			}
		case r < 85:
			_, want := ref[key]
			if got := tb.Delete(key); got != want {
				t.Fatalf("op %d: Delete(%d) = %v, map has it: %v", i, key, got, want)
			}
			if want {
				delete(ref, key)
				deleted++
			}
		case r < 99:
			k, v, ok := tb.EvictFirst()
			if w, in := ref[k]; ok != (len(ref) > 0) || (ok && (!in || w != v)) {
				t.Fatalf("op %d: EvictFirst = (%d,%d,%v) against the map", i, k, v, ok)
			}
			delete(ref, k)
		default:
			if rng.IntN(20) == 0 {
				tb.Clear()
				clear(ref)
			}
		}
		if tb.Len() != len(ref) {
			t.Fatalf("op %d: Len %d, map %d", i, tb.Len(), len(ref))
		}
		want, ok := ref[key]
		if got := tb.Get(key); (got != nil) != ok || (ok && *got != want) {
			t.Fatalf("op %d: Get(%d) = %v, map (%d, %v)", i, key, got, want, ok)
		}
		if i%97 == 0 {
			seen := 0
			tb.Range(func(k uint64, v *int) bool {
				if w, in := ref[k]; !in || w != *v {
					t.Fatalf("op %d: Range visited %d=%d, map (%d, %v)", i, k, *v, w, in)
				}
				seen++
				return true
			})
			if seen != len(ref) {
				t.Fatalf("op %d: Range visited %d entries, map holds %d", i, seen, len(ref))
			}
		}
	}
	if tb.Cap() != bound || deleted < 10_000 {
		t.Fatalf("cap %d, %d deletes: the trace never reached the bound or rarely deleted", tb.Cap(), deleted)
	}
}

// TestDeleteKeepsChainReachable deletes the head of a chain of colliding
// keys and checks the rest are still found and the freed slot is reused.
func TestDeleteKeepsChainReachable(t *testing.T) {
	tb := New[int](16)
	keys := collidingKeys(uint64(tb.Cap()-1), 4)
	for i, k := range keys {
		*tb.Insert(k) = i
	}
	if !tb.Delete(keys[0]) || tb.Delete(keys[0]) {
		t.Fatal("Delete of a present key must report true once, then false")
	}
	for i, k := range keys[1:] {
		if v := tb.Get(k); v == nil || *v != i+1 {
			t.Fatalf("key %d lost after deleting the chain head (got %v)", k, v)
		}
	}
	if tb.Len() != 3 {
		t.Fatalf("Len = %d after one delete of four", tb.Len())
	}
	*tb.Insert(keys[0]) = 9
	if v := tb.Get(keys[0]); v == nil || *v != 9 {
		t.Fatal("deleted key not re-insertable")
	}
}

// oatSink keeps BenchmarkOATableGet's lookups live.
var oatSink int

// BenchmarkOATableGet measures Get on a table half full at its bound of
// 1024 slots, the load the prefetcher tables run at, over keys of which
// three in four are present.
func BenchmarkOATableGet(b *testing.B) {
	const bound = 1024
	tb := New[[2]uint64](bound)
	for k := uint64(0); k < bound/2; k++ {
		tb.Insert(k * 64)[0] = k
	}
	rng := rand.New(rand.NewPCG(1, 2))
	keys := make([]uint64, 4096)
	for i := range keys {
		keys[i] = uint64(rng.IntN(2*bound/3)) * 64
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v := tb.Get(keys[i&(len(keys)-1)]); v != nil {
			oatSink += int(v[0])
		}
	}
}
