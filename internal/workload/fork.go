package workload

// Fork returns an independent generator that continues from the current
// position: the fork and the original emit identical future record streams
// and never affect each other. It is a cheap checkpoint — the immutable
// tables built at construction (PCs, hot-set indexes, Narrow block groups,
// stream weights) are shared, and only the mutable sampler state (the
// random streams, stream cursors, and Zipf memo tables) is copied.
//
// No simulation path forks today: batched runs that would exceed their
// memory budget shrink the shared lockstep window instead. Fork is kept as
// the stream checkpoint for the planned warm-state checkpoint/fork of
// simulator state (ROADMAP.md). The fork property test asserts
// byte-identity against a fresh generator advanced to the same position.
func (g *Generator) Fork() *Generator {
	ng := &Generator{
		model:  g.model,
		seed:   g.seed,
		rnd:    g.rnd.Clone(),
		cumW:   g.cumW,
		totalW: g.totalW,
	}
	// gapGeom draws from the generator's top-level Rand; rewire it to the
	// clone so the fork's gap stream decouples from the original.
	ng.gapGeom = g.gapGeom.CloneWith(ng.rnd)
	if g.gapAlt != nil {
		ng.gapAlt = g.gapAlt.CloneWith(ng.rnd)
	}
	ng.streams = make([]*streamState, len(g.streams))
	for i, st := range g.streams {
		ng.streams[i] = st.fork()
	}
	return ng
}

// fork copies the stream's mutable state (cursor, random stream, Zipf
// sampler); pcs/hot/narrow/base/blocks are read-only after construction
// and stay shared.
func (st *streamState) fork() *streamState {
	ns := *st
	ns.rnd = st.rnd.Clone()
	if st.zipf != nil {
		ns.zipf = st.zipf.Clone()
	}
	return &ns
}

// Fork returns an independent phased generator continuing from the current
// position, including mid-phase: the record counter and every phase
// generator are copied, so phase boundaries land on the same records for
// the fork and the original.
func (g *PhasedGenerator) Fork() *PhasedGenerator {
	ng := &PhasedGenerator{model: g.model, seed: g.seed, pos: g.pos}
	ng.gens = make([]*Generator, len(g.gens))
	for i, pg := range g.gens {
		ng.gens[i] = pg.Fork()
	}
	return ng
}
