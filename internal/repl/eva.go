package repl

// EVA implements a lightweight Economic Value Added policy (Beckmann &
// Sánchez, HPCA'17): lines are ranked by the expected future value of their
// age class, estimated online from the age distributions of hits and
// evictions. EVA uses no PC-indexed predictor and no sampled sets, which is
// why neither of Drishti's enhancements applies to it (Table 7's last row);
// it is included as the distribution-based point of the design space.
type EVA struct {
	sets, ways int

	// Per-line coarse age, advanced on set accesses.
	age     []uint8
	tick    []uint8 // per-set sub-counter for coarse aging
	granule uint8   // set accesses per age step

	// Event histograms per age class, folded periodically into a rank.
	hits   [numAgeClasses]uint64
	evs    [numAgeClasses]uint64
	rank   [numAgeClasses]float64 // higher = more valuable
	events uint64
	period uint64
}

// numAgeClasses buckets line ages; the last class is "ancient".
const numAgeClasses = 16

// NewEVA builds an EVA policy for a sets×ways cache.
func NewEVA(sets, ways int) *EVA {
	e := &EVA{
		sets:    sets,
		ways:    ways,
		age:     make([]uint8, sets*ways),
		tick:    make([]uint8, sets),
		granule: 4,
		period:  8192,
	}
	// Until the first reclassification, prefer evicting old lines (LRU-ish).
	for c := 0; c < numAgeClasses; c++ {
		e.rank[c] = float64(numAgeClasses - c)
	}
	return e
}

// Name implements Policy.
func (e *EVA) Name() string { return "eva" }

func (e *EVA) idx(set, way int) int { return set*e.ways + way }

// OnAccess implements Observer: ages every line in the set coarsely.
func (e *EVA) OnAccess(set int, _ Access, _ bool) {
	e.tick[set]++
	if e.tick[set] < e.granule {
		return
	}
	e.tick[set] = 0
	base := set * e.ways
	for w := 0; w < e.ways; w++ {
		if e.age[base+w] < numAgeClasses-1 {
			e.age[base+w]++
		}
	}
}

// OnHit implements Policy: record the hit's age class, rejuvenate.
func (e *EVA) OnHit(set, way int, _ Access) {
	i := e.idx(set, way)
	e.hits[e.age[i]]++
	e.age[i] = 0
	e.bump()
}

// OnFill implements Policy.
func (e *EVA) OnFill(set, way int, _ Access) {
	e.age[e.idx(set, way)] = 0
}

// OnEvict implements Policy: record the eviction's age class.
func (e *EVA) OnEvict(set, way int, _, _ uint64) {
	e.evs[e.age[e.idx(set, way)]]++
	e.bump()
}

// Victim implements Policy: evict the line whose age class has the lowest
// estimated value.
func (e *EVA) Victim(set int, _ Access) int {
	base := set * e.ways
	best, bestRank := 0, e.rank[e.age[base]]
	for w := 1; w < e.ways; w++ {
		if r := e.rank[e.age[base+w]]; r < bestRank {
			best, bestRank = w, r
		}
	}
	return best
}

// bump counts classification events and periodically refreshes the ranks.
func (e *EVA) bump() {
	e.events++
	if e.events%e.period != 0 {
		return
	}
	e.reclassify()
}

// reclassify estimates each age class's forward value: the probability a
// line of this age eventually hits, weighed against the cache time it will
// consume — the spirit of EVA's hit-rate-per-resource ranking.
func (e *EVA) reclassify() {
	// Survival-style estimate from the oldest class downward.
	var futureHits, futureEvs float64
	for c := numAgeClasses - 1; c >= 0; c-- {
		futureHits += float64(e.hits[c])
		futureEvs += float64(e.evs[c])
		total := futureHits + futureEvs
		if total == 0 {
			e.rank[c] = 0
			continue
		}
		hitProb := futureHits / total
		// Expected remaining residency grows with how far the class's
		// hits are in the future; approximate with class distance.
		cost := 1.0 + float64(c)/numAgeClasses
		e.rank[c] = hitProb / cost
	}
	// Decay histories so the ranking tracks phase changes.
	for c := 0; c < numAgeClasses; c++ {
		e.hits[c] /= 2
		e.evs[c] /= 2
	}
}
