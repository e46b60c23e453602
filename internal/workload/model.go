// Package workload provides synthetic workload models that stand in for the
// SPEC CPU2017, GAP, CVP1, CloudSuite, Google-datacenter, and XSBench traces
// used by the paper (substitution documented in DESIGN.md §2).
//
// A Model is a weighted mixture of access streams. Each stream owns a
// private address region and a set of program counters, and produces
// addresses with a characteristic reuse pattern. The statistics that LLC
// replacement studies depend on are all explicit parameters:
//
//   - reuse distance mix          → stream kinds and footprints
//   - PC count and PC "width"     → PCs / BlocksPerPC per stream
//   - slice scattering (Fig 2)    → footprint per PC
//   - per-set miss skew (Fig 5)   → HotSetFrac / HotSets
//   - streaming uniformity (lbm)  → Sequential streams with no skew
package workload

import (
	"fmt"

	"drishti/internal/mem"
	"drishti/internal/stats"
	"drishti/internal/trace"
)

// Suite labels the benchmark family a model imitates.
type Suite string

// Suites.
const (
	SuiteSPEC  Suite = "SPEC"
	SuiteGAP   Suite = "GAP"
	SuiteCVP1  Suite = "CVP1"
	SuiteCloud Suite = "Cloud"
	SuiteXS    Suite = "XSBench"
)

// StreamKind selects the address-generation behavior of a stream.
type StreamKind uint8

const (
	// Sequential walks its region with a fixed block stride and wraps
	// (streaming / cache-averse when the footprint exceeds the LLC).
	Sequential StreamKind = iota
	// Loop repeatedly walks a region in order (scan reuse; LLC-friendly
	// iff the footprint fits in the LLC share).
	Loop
	// Chase jumps pseudo-randomly inside its region, optionally with a
	// Zipf skew over blocks and a hot-set bias (mcf-like).
	Chase
	// Gather picks blocks from a large table through a Zipf distribution
	// (graph-analytics-like: hot vertices plus a long random tail).
	Gather
	// Narrow gives each PC a tiny private group of blocks that it
	// re-touches forever; such PCs map to very few LLC slices, which is
	// what drives the paper's Fig 2 statistic.
	Narrow
)

// String implements fmt.Stringer.
func (k StreamKind) String() string {
	switch k {
	case Sequential:
		return "seq"
	case Loop:
		return "loop"
	case Chase:
		return "chase"
	case Gather:
		return "gather"
	case Narrow:
		return "narrow"
	default:
		return fmt.Sprintf("StreamKind(%d)", uint8(k))
	}
}

// StreamSpec parameterizes one access stream of a model.
type StreamSpec struct {
	Kind        StreamKind
	Weight      float64 // relative probability of this stream per memory op
	FootprintKB int     // region size
	PCs         int     // distinct program counters in this stream
	BlocksPerPC int     // Narrow: private blocks per PC (default 2)
	WriteFrac   float64 // fraction of accesses that are stores
	Skew        float64 // Zipf skew over blocks (Chase/Gather); 0 = uniform
	StrideBlk   int     // Sequential: stride in blocks (default 1)
	HotSetFrac  float64 // fraction of accesses steered into hot sets
	HotSets     int     // number of hot sets when HotSetFrac > 0
}

// Model is a complete synthetic program.
type Model struct {
	Name    string
	Suite   Suite
	MeanGap float64 // mean non-memory instructions between memory ops
	Streams []StreamSpec
	// SetIndexBits is the per-slice set-index width the hot-set steering
	// targets; 0 uses the default (11, a 2 MB / 16-way slice). Scale sets
	// it to match shrunken machines.
	SetIndexBits int
	// GapDist selects the inter-access gap process: "" or "geometric" is
	// the default geometric think time; "poisson", "gamma", and "weibull"
	// draw gaps from the matching distribution with mean MeanGap. Scenario
	// specs (internal/scenario) use these for arrival/burst shaping —
	// a weibull shape below one yields the heavy-tailed idle periods and
	// dense bursts of consolidated multi-tenant arrivals.
	GapDist string
	// GapShape is the shape parameter k for gamma/weibull gap processes;
	// ignored by the other distributions.
	GapShape float64
}

// Scale shrinks every stream footprint by divisor (for harness-scale runs
// where the whole machine is scaled down too) and retargets hot-set
// steering at a slice with setBits set-index bits. Footprints floor at
// 16 KB so streams keep distinct behaviors.
func (m Model) Scale(divisor, setBits int) Model {
	if divisor <= 1 && setBits == 0 {
		return m
	}
	out := m
	out.SetIndexBits = setBits
	out.Streams = make([]StreamSpec, len(m.Streams))
	for i, st := range m.Streams {
		if divisor > 1 {
			st.FootprintKB /= divisor
			if st.FootprintKB < 4 {
				st.FootprintKB = 4
			}
		}
		out.Streams[i] = st
	}
	return out
}

// StreamPCs returns the (deterministic) program counters stream streamIdx
// of the model will issue — the same values every generator of this model
// uses, independent of seed. Experiments use it to pick hot PCs to inspect.
func StreamPCs(m Model, streamIdx int) []uint64 {
	return streamPCs(m.Streams[streamIdx].PCs, streamIdx)
}

func streamPCs(count, streamIdx int) []uint64 {
	pcs := make([]uint64, count)
	for i := range pcs {
		pcs[i] = 0x400000 + uint64(streamIdx)<<16 + uint64(i)*4
	}
	return pcs
}

// ScaleAll applies Scale to each model.
func ScaleAll(models []Model, divisor, setBits int) []Model {
	out := make([]Model, len(models))
	for i, m := range models {
		out[i] = m.Scale(divisor, setBits)
	}
	return out
}

// Validate reports configuration errors in the model.
func (m Model) Validate() error {
	if m.Name == "" {
		return fmt.Errorf("workload: model with empty name")
	}
	if len(m.Streams) == 0 {
		return fmt.Errorf("workload: model %s has no streams", m.Name)
	}
	switch m.GapDist {
	case "", "geometric", "poisson":
	case "gamma", "weibull":
		if m.GapShape <= 0 {
			return fmt.Errorf("workload: model %s %s gap distribution needs GapShape > 0", m.Name, m.GapDist)
		}
	default:
		return fmt.Errorf("workload: model %s has unknown gap distribution %q (geometric|poisson|gamma|weibull)", m.Name, m.GapDist)
	}
	for i, s := range m.Streams {
		if s.Weight <= 0 {
			return fmt.Errorf("workload: model %s stream %d has non-positive weight", m.Name, i)
		}
		if s.FootprintKB <= 0 {
			return fmt.Errorf("workload: model %s stream %d has non-positive footprint", m.Name, i)
		}
		if s.PCs <= 0 {
			return fmt.Errorf("workload: model %s stream %d has no PCs", m.Name, i)
		}
		if s.WriteFrac < 0 || s.WriteFrac > 1 {
			return fmt.Errorf("workload: model %s stream %d write fraction out of range", m.Name, i)
		}
		if s.HotSetFrac > 0 && s.HotSets <= 0 {
			return fmt.Errorf("workload: model %s stream %d hot-set fraction without hot sets", m.Name, i)
		}
	}
	return nil
}

// setIndexBits is the number of per-slice set-index bits the generator
// assumes when steering accesses into hot sets. It matches the default
// 2 MB / 16-way slice (2048 sets). The steering still produces set-level
// skew for other slice geometries, just with a different aliasing.
const setIndexBits = 11

// Generator produces an infinite instruction stream for one model instance.
// It implements trace.Reader.
type Generator struct {
	model   Model
	seed    uint64
	rnd     *stats.Rand
	gapGeom *stats.Geom      // geometric gap sampler over rnd, MeanGap precomputed
	gapAlt  stats.IntSampler // non-nil iff GapDist selects a non-geometric process
	streams []*streamState
	cumW    []float64
	totalW  float64
}

type streamState struct {
	spec    StreamSpec
	base    uint64 // region base address (64 KB aligned)
	blocks  uint64 // region size in blocks
	pcs     []uint64
	pos     uint64      // Sequential/Loop cursor
	zipf    *stats.Zipf // Chase/Gather block popularity
	hot     []uint64    // hot set indices
	narrow  [][]uint64  // Narrow: per-PC private blocks
	rnd     *stats.Rand
	setBits int
}

// NewGenerator builds a deterministic generator for model with the given
// seed. Different seeds produce disjoint address spaces, which mirrors the
// paper's multi-programmed (no-sharing) setup.
func NewGenerator(model Model, seed uint64) (*Generator, error) {
	if err := model.Validate(); err != nil {
		return nil, err
	}
	g := &Generator{model: model, seed: seed, rnd: stats.NewRand(seed)}
	g.gapGeom = stats.NewGeom(g.rnd, model.MeanGap)
	// Alternative gap processes layer on top of (and fully replace) the
	// default geometric sampler; the default path's draw sequence is
	// untouched, so models without GapDist stay bit-identical.
	switch model.GapDist {
	case "", "geometric":
	case "poisson":
		g.gapAlt = stats.NewPoisson(g.rnd, model.MeanGap)
	case "gamma":
		g.gapAlt = stats.NewGamma(g.rnd, model.MeanGap, model.GapShape)
	case "weibull":
		g.gapAlt = stats.NewWeibull(g.rnd, model.MeanGap, model.GapShape)
	}
	var cum float64
	setBits := model.SetIndexBits
	if setBits == 0 {
		setBits = setIndexBits
	}
	for i, spec := range model.Streams {
		st := newStreamState(spec, g.rnd.Fork(uint64(i)+1), seed, i, setBits)
		g.streams = append(g.streams, st)
		cum += spec.Weight
		g.cumW = append(g.cumW, cum)
	}
	g.totalW = cum
	return g, nil
}

// MustGenerator is NewGenerator that panics on configuration errors; for use
// with the built-in registry models, which are validated by tests.
func MustGenerator(model Model, seed uint64) *Generator {
	g, err := NewGenerator(model, seed)
	if err != nil {
		panic(err)
	}
	return g
}

func newStreamState(spec StreamSpec, rnd *stats.Rand, seed uint64, idx, setBits int) *streamState {
	blocks := uint64(spec.FootprintKB) * 1024 / mem.BlockSize
	if blocks == 0 {
		blocks = 1
	}
	// Regions live in disjoint 1 GB "address universes" per (seed, stream)
	// so generators never alias across cores or streams.
	region := stats.Mix64(seed*2654435761 + uint64(idx)*97)
	base := (region % (1 << 20)) << 30
	base += uint64(idx) << 26
	st := &streamState{spec: spec, base: base, blocks: blocks, rnd: rnd, setBits: setBits}
	// PCs are stable across seeds for the same model stream so that
	// homogeneous mixes exercise the per-core predictor indexing.
	st.pcs = streamPCs(spec.PCs, idx)
	switch spec.Kind {
	case Chase, Gather:
		if spec.Skew > 0 {
			st.zipf = stats.NewZipf(rnd.Fork(11), blocks, spec.Skew)
		}
	case Narrow:
		per := spec.BlocksPerPC
		if per <= 0 {
			per = 2
		}
		st.narrow = make([][]uint64, spec.PCs)
		for i := range st.narrow {
			bs := make([]uint64, per)
			for j := range bs {
				bs[j] = rnd.Uint64n(blocks)
			}
			st.narrow[i] = bs
		}
	}
	if spec.HotSetFrac > 0 {
		// Clamp so hot sets stay a small fraction of the slice even on
		// scaled machines; otherwise "hot" degenerates to uniform. The
		// paper's Fig 5a mcf skew concentrates misses in very few sets.
		nHot := spec.HotSets
		if max := (1 << uint(setBits)) / 8; nHot > max {
			nHot = max
		}
		if nHot < 1 {
			nHot = 1
		}
		// Hot set indexes are structural (data-layout offsets baked into
		// the binary), so they are derived from the stream identity, NOT
		// the per-core seed: every core of a homogeneous mix hammers the
		// same sets, exactly like Fig 5's per-set MPKA skew.
		hotRnd := stats.NewRand(uint64(idx)*7907 + 5)
		st.hot = make([]uint64, nHot)
		for i := range st.hot {
			st.hot[i] = hotRnd.Uint64n(1 << uint(setBits))
		}
	}
	return st
}

// Next implements trace.Reader; the stream is infinite so ok is always true.
func (g *Generator) Next() (trace.Rec, bool) {
	st := g.pick()
	addr, pc := st.next()
	var gap int
	if g.gapAlt != nil {
		gap = g.gapAlt.Next()
	} else {
		gap = g.gapGeom.Next()
	}
	rec := trace.Rec{
		PC:    pc,
		Addr:  addr,
		Write: st.rnd.Float64() < st.spec.WriteFrac,
		Gap:   uint32(gap),
	}
	return rec, true
}

// Reset implements trace.Reader by rebuilding the deterministic state.
func (g *Generator) Reset() {
	fresh, err := NewGenerator(g.model, g.seed)
	if err != nil { // validated at construction; cannot happen
		panic(err)
	}
	*g = *fresh
}

// Model returns the generator's model.
func (g *Generator) Model() Model { return g.model }

func (g *Generator) pick() *streamState {
	u := g.rnd.Float64() * g.totalW
	for i, c := range g.cumW {
		if u < c {
			return g.streams[i]
		}
	}
	return g.streams[len(g.streams)-1]
}

func (st *streamState) next() (addr, pc uint64) {
	spec := &st.spec // read in place: copying the spec per record shows in profiles
	switch spec.Kind {
	case Sequential:
		stride := uint64(spec.StrideBlk)
		if stride == 0 {
			stride = 1
		}
		blk := st.pos % st.blocks
		st.pos += stride
		pc = st.pcs[0]
		if len(st.pcs) > 1 {
			pc = st.pcs[int(st.pos/64)%len(st.pcs)]
		}
		return st.blockAddr(blk), pc
	case Loop:
		blk := st.pos % st.blocks
		st.pos++
		// Loop bodies cycle their PCs in program order.
		pc = st.pcs[int(blk)%len(st.pcs)]
		return st.blockAddr(blk), pc
	case Chase:
		var blk uint64
		if st.zipf != nil {
			blk = st.zipf.Next()
			// PC stratification: hot structures are walked by dedicated
			// PCs (tight pointer loops), the cold tail by traversal PCs.
			// This is what makes PC-indexed reuse predictors useful on
			// pointer-chasing codes, as they are on real mcf.
			pcIdx := int(blk * uint64(len(st.pcs)) / st.blocks)
			if pcIdx >= len(st.pcs) {
				pcIdx = len(st.pcs) - 1
			}
			pc = st.pcs[pcIdx]
		} else {
			blk = st.rnd.Uint64n(st.blocks)
			pc = st.pcs[st.rnd.Intn(len(st.pcs))]
		}
		if steered, h := st.steerHot(blk); steered != blk || st.isSteered(blk) {
			// The oversubscribed structure has its own traversal code:
			// steered blocks are touched by a dedicated PC group, so
			// their (pessimistic) training never poisons the predictions
			// for blocks living in ordinary sets.
			blk = steered
			if n := len(st.pcs); n > 8 {
				pc = st.pcs[n-1-int(h%4)]
			}
		}
		return st.blockAddr(blk), pc
	case Gather:
		var blk uint64
		if st.zipf != nil {
			blk = st.zipf.Next()
		} else {
			blk = st.rnd.Uint64n(st.blocks)
		}
		// Popularity rank correlates with PC: hot vertices are touched by
		// the tight inner loop, the tail by the frontier-expansion PCs.
		pcIdx := int(blk * uint64(len(st.pcs)) / st.blocks)
		if pcIdx >= len(st.pcs) {
			pcIdx = len(st.pcs) - 1
		}
		pc = st.pcs[pcIdx]
		blk, _ = st.steerHot(blk)
		return st.blockAddr(blk), pc
	case Narrow:
		i := st.rnd.Intn(len(st.pcs))
		bs := st.narrow[i]
		return st.blockAddr(bs[st.rnd.Intn(len(bs))]), st.pcs[i]
	default:
		panic(fmt.Sprintf("workload: unknown stream kind %d", spec.Kind))
	}
}

// steerHot redirects a fraction of the stream's blocks so their per-slice
// set index lands in one of the stream's hot sets, producing the per-set
// miss skew of Fig 5. The redirect is a pure function of the block, so a
// steered block keeps a stable address and its reuse pattern survives —
// high-MPKA sets are overloaded, not noise. The returned hash lets callers
// derive stable per-block choices (e.g., the dedicated PC).
func (st *streamState) steerHot(blk uint64) (uint64, uint64) {
	h := stats.Mix64(blk ^ st.base)
	if !st.steers(h) {
		return blk, h
	}
	// Skew among the hot sets themselves: quadratic bias toward index 0.
	u := float64(stats.Mix64(blk*2654435761+st.base)>>11) * 0x1p-53
	hot := st.hot[int(u*u*float64(len(st.hot)))]
	mask := uint64(1)<<uint(st.setBits) - 1
	return (blk &^ mask) | hot, h
}

// steers reports whether a block with steering hash h is redirected.
func (st *streamState) steers(h uint64) bool {
	if len(st.hot) == 0 {
		return false
	}
	return float64(h>>11)*0x1p-53 < st.spec.HotSetFrac
}

// isSteered reports whether blk belongs to the steered hash-slice.
func (st *streamState) isSteered(blk uint64) bool {
	return st.steers(stats.Mix64(blk ^ st.base))
}

func (st *streamState) blockAddr(blk uint64) uint64 {
	return st.base + blk*mem.BlockSize
}
