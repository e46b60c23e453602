// Package optgen implements the sampled OPTgen mechanism shared by
// Hawkeye-family policies (Hawkeye, Glider): a bounded per-sampled-set
// history of line accesses plus an occupancy vector that answers "would
// Belady's OPT have hit this reuse?".
package optgen

import (
	"math"

	"drishti/internal/oatable"
)

// Entry is one tracked line in a sampled set's history. Sig and Core
// identify the predictor entry of the access that brought the line in.
type Entry struct {
	Sig  uint32
	Core uint16
	TS   uint32
	Meta uint64 // policy-private payload (e.g., Glider's history snapshot)
}

// Set is the OPTgen state of one sampled set. The history is an oatable
// keyed by block, with each Entry inline in its slot, so a lookup or an
// insert allocates nothing.
type Set struct {
	entries *oatable.Table[Entry]
	occ     []uint8
	time    uint32
	ways    int
	maxEnt  int
}

// NewSet builds a sampled set tracking a window of window accesses for a
// cache set with the given associativity.
func NewSet(window, ways int) *Set {
	s := &Set{ways: ways, maxEnt: window}
	s.Reset(window)
	return s
}

// Reset discards all history (dynamic sampled-set reselection).
func (s *Set) Reset(window int) {
	s.entries = oatable.NewSmall[Entry](2 * window) // at most window entries: half the bound
	s.occ = make([]uint8, window)
	s.time = 0
	s.maxEnt = window
}

// Time returns the set-local access clock.
func (s *Set) Time() uint32 { return s.time }

// Lookup returns the history entry for block, if tracked. The pointer is
// valid until the next Insert or Reset.
func (s *Set) Lookup(block uint64) (*Entry, bool) {
	e := s.entries.Get(block)
	return e, e != nil
}

// OptHit answers whether OPT would have hit the reuse interval ending now
// for an entry last touched at last, updating the occupancy vector on a hit.
func (s *Set) OptHit(last uint32) bool {
	window := uint32(len(s.occ))
	if s.time-last >= window {
		return false
	}
	for t := last; t != s.time; t++ {
		if int(s.occ[t%window]) >= s.ways {
			return false
		}
	}
	for t := last; t != s.time; t++ {
		s.occ[t%window]++
	}
	return true
}

// Insert tracks a new block, evicting the oldest tracked entry if the
// history is full. The evicted entry (whose line aged out un-reused) is
// returned so the caller can detrain it.
func (s *Set) Insert(block uint64, e Entry) (evicted Entry, wasEvicted bool) {
	if s.entries.Len() >= s.maxEnt {
		evicted, wasEvicted = s.evictOldest(), true
	}
	*s.entries.Insert(block) = e
	return evicted, wasEvicted
}

// evictOldest removes and returns the entry touched longest ago. Every
// entry's TS is the set time of a distinct access, so the oldest entry is
// unique and the slot order of the scan cannot change the choice. The scan
// is branch-free: each slot's key packs its complemented age above its
// index (all ones for a free slot), and the smallest key is the oldest
// entry.
func (s *Set) evictOldest() Entry {
	best := uint64(math.MaxUint64)
	for i := range s.entries.Cap() {
		_, e, live := s.entries.At(i)
		dead := uint64(0)
		if !live {
			dead = math.MaxUint64
		}
		best = min(best, uint64(^(s.time-e.TS))<<32|uint64(i)|dead)
	}
	block, e, _ := s.entries.At(int(uint32(best)))
	old := *e
	s.entries.Delete(block)
	return old
}

// Advance opens the occupancy slot for the current time and ticks the clock.
// Call once per sampled-set access, after Lookup/Insert.
func (s *Set) Advance() {
	s.occ[s.time%uint32(len(s.occ))] = 0
	s.time++
}
