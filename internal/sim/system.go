package sim

import (
	"context"
	"fmt"
	"math/bits"

	"drishti/internal/cache"
	"drishti/internal/cpu"
	"drishti/internal/dram"
	"drishti/internal/mem"
	"drishti/internal/noc"
	"drishti/internal/oatable"
	"drishti/internal/policies"
	"drishti/internal/prefetch"
	"drishti/internal/repl"
	"drishti/internal/stats"
	"drishti/internal/trace"
	"drishti/internal/workload"
)

// System is one assembled many-core machine plus its workload.
type System struct {
	cfg Config

	cores   []*cpu.Core
	readers []trace.Reader // nil = idle core
	// feed delivers the readers' records during RunContext, generated on
	// its own goroutine. Batch lanes leave it nil and step their
	// shared-stream cursors directly.
	feed *workload.Feed
	l1   []*cache.Cache
	l2   []*cache.Cache
	l1pf []prefetch.Prefetcher
	l2pf []prefetch.Prefetcher

	llc      []*cache.Cache
	built    *policies.Built
	penAware []repl.FillLatencier // per-slice, nil when policy has no fill penalty

	mesh *noc.Mesh
	star *noc.Star
	ram  *dram.DRAM

	// Optional MSHR files (nil when Config.ModelMSHRs is off).
	l1MSHR  []*mshrFile
	l2MSHR  []*mshrFile
	llcMSHR []*mshrFile

	sliceMask uint64
	setBits   uint

	// Run bookkeeping.
	finishedAt  []recorded
	warmupDone  bool
	totalTarget uint64
	prefIssued  uint64
	prefDropped uint64 // candidates already resident or throttled

	// Per-core LLC demand counters.
	coreLLCAccesses []uint64
	coreLLCMisses   []uint64

	// Fig 2 tracker: (core, PC) → slice bitmap + load count. An
	// open-addressing table — the tracker sits on the LLC demand path, so
	// it must not allocate per access in steady state.
	pcSlices *oatable.Table[pcTrack]

	// Epoch telemetry (nil when Config.TelemetryEpoch is zero; the hot path
	// pays one nil check).
	telem *telemetry

	// expCursors, when non-nil, makes this system a batched tier-2 lane:
	// steps replay pre-expanded private-hierarchy outcomes from a shared
	// stream (see expStream) instead of simulating L1/L2 locally. Set only
	// by the batch runner.
	expCursors []*expCursor
}

type recorded struct {
	done   bool
	cycles uint64
	instrs uint64
	ipc    float64
}

// pcTrackSlices is how many slices the Fig 2 tracker's bitmap covers;
// Config.Validate rejects TrackPCSlices on larger machines.
const pcTrackSlices = 128

type pcTrack struct {
	slices [pcTrackSlices / 64]uint64 // bitmap over the slices a PC touched
	loads  uint64
}

// pcSlicesLimit bounds the Fig 2 tracker: when the table exceeds this many
// (core, PC) keys it restarts its observation window. Workload models use a
// few dozen PCs per core, so real runs never reach it.
const pcSlicesLimit = 1 << 16

// New builds a system for cfg running mix readers (one per core; nil entries
// leave that core idle — used for the IPC-alone runs). RunContext calls the
// readers' Next and Reset from one goroutine of its own, never the
// caller's, and only while it runs (see RunContext).
func New(cfg Config, readers []trace.Reader) (*System, error) { return renew(nil, cfg, readers) }

// renew is New building into spare, a finished system nothing reads any
// more (nil for none); batch lane workers pass the machine of the lane they
// last finished. The spare's large arrays are reset to the state New
// produces and reused: its LLC slices, lru/srrip LLC rows at the same
// geometry (policies.Renew), and its active cores' L1/L2 caches and
// IP-stride tables, which go to this system's active cores in turn
// whichever cores they served before. Everything else — cores, the rest of
// the policy stack, prefetcher seeds, DRAM, mesh, star, MSHRs, counters —
// is built or drawn exactly as New does, and nothing a Result holds points
// into reused memory, so the system behaves exactly as a fresh one. spare
// must not be used again.
func renew(spare *System, cfg Config, readers []trace.Reader) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(readers) != cfg.Cores {
		return nil, fmt.Errorf("sim: %d readers for %d cores", len(readers), cfg.Cores)
	}
	rnd := stats.NewRand(cfg.Seed ^ 0x5eed)
	s := &System{
		cfg:             cfg,
		readers:         readers,
		mesh:            noc.NewMesh(cfg.Cores, cfg.MeshPerHop, cfg.MeshRouter),
		star:            noc.NewStar(cfg.Cores, cfg.StarLatency),
		finishedAt:      make([]recorded, cfg.Cores),
		coreLLCAccesses: make([]uint64, cfg.Cores),
		coreLLCMisses:   make([]uint64, cfg.Cores),
	}
	var err error
	s.ram, err = dram.New(cfg.dramConfig())
	if err != nil {
		return nil, err
	}

	// Cores and private caches, for active cores only: an idle core (nil
	// reader) never steps, so it gets no CPU model, L1/L2 or prefetchers.
	// The shared configuration is validated once up front, under core 0's
	// cache names, so New returns the same errors however many cores are
	// idle. Every core still draws its two prefetcher seeds, so the
	// generator state later draws see does not depend on which cores idle.
	l1Cfg := cache.Config{Name: "l1d-0", Sets: cfg.l1Sets(), Ways: cfg.L1Ways}
	l2Cfg := cache.Config{Name: "l2-0", Sets: cfg.l2Sets(), Ways: cfg.L2Ways}
	for _, err := range []error{
		cfg.cpuConfig().Validate(),
		l1Cfg.Validate(),
		l2Cfg.Validate(),
		prefetch.Validate(cfg.L1Prefetcher),
		prefetch.Validate(cfg.L2Prefetcher),
	} {
		if err != nil {
			return nil, err
		}
	}
	s.cores = make([]*cpu.Core, cfg.Cores)
	s.l1 = make([]*cache.Cache, cfg.Cores)
	s.l2 = make([]*cache.Cache, cfg.Cores)
	s.l1pf = make([]prefetch.Prefetcher, cfg.Cores)
	s.l2pf = make([]prefetch.Prefetcher, cfg.Cores)
	var spareCores []int // the spare's active cores, handed out in order
	if spare != nil {
		for c, l1 := range spare.l1 {
			if l1 != nil {
				spareCores = append(spareCores, c)
			}
		}
	}
	for c := 0; c < cfg.Cores; c++ {
		seed1, seed2 := rnd.Uint64(), rnd.Uint64()
		if readers[c] == nil {
			continue
		}
		var (
			l1, l2     *cache.Cache
			l1pf, l2pf prefetch.Prefetcher
		)
		if len(spareCores) > 0 {
			sc := spareCores[0]
			spareCores = spareCores[1:]
			l1, l2, l1pf, l2pf = spare.l1[sc], spare.l2[sc], spare.l1pf[sc], spare.l2pf[sc]
		}
		if s.cores[c], err = cpu.New(c, cfg.cpuConfig()); err != nil {
			return nil, err
		}
		l1Cfg.Name = fmt.Sprintf("l1d-%d", c)
		if s.l1[c], err = cache.Renew(l1, l1Cfg, repl.RenewLRU(policyOf(l1), l1Cfg.Sets, l1Cfg.Ways)); err != nil {
			return nil, err
		}
		l2Cfg.Name = fmt.Sprintf("l2-%d", c)
		if s.l2[c], err = cache.Renew(l2, l2Cfg, repl.RenewSRRIP(policyOf(l2), l2Cfg.Sets, l2Cfg.Ways)); err != nil {
			return nil, err
		}
		if s.l1pf[c], err = prefetch.Renew(l1pf, cfg.L1Prefetcher, seed1); err != nil {
			return nil, err
		}
		if s.l2pf[c], err = prefetch.Renew(l2pf, cfg.L2Prefetcher, seed2); err != nil {
			return nil, err
		}
	}

	// Sliced LLC: one slice per core.
	sets := cfg.llcSetsPerSlice()
	s.setBits = uint(bits.TrailingZeros(uint(sets)))
	s.sliceMask = uint64(cfg.Cores - 1)
	geo := repl.Geometry{Slices: cfg.Cores, Cores: cfg.Cores, SetsPerSlice: sets, Ways: cfg.LLCWays}
	var (
		spareBuilt *policies.Built
		spareLLC   []*cache.Cache
	)
	if spare != nil {
		spareBuilt, spareLLC = spare.built, spare.llc
	}
	s.built, err = policies.Renew(spareBuilt, cfg.Policy, geo, s.mesh, s.star, rnd.Fork(42))
	if err != nil {
		return nil, err
	}
	s.penAware = make([]repl.FillLatencier, cfg.Cores)
	for i := 0; i < cfg.Cores; i++ {
		var old *cache.Cache
		if i < len(spareLLC) {
			old = spareLLC[i]
		}
		sl, err := cache.Renew(old, cache.Config{Name: fmt.Sprintf("llc-%d", i), Sets: sets, Ways: cfg.LLCWays},
			s.built.PerSlice[i])
		if err != nil {
			return nil, err
		}
		s.llc = append(s.llc, sl)
		if fl, ok := s.built.PerSlice[i].(repl.FillLatencier); ok {
			s.penAware[i] = fl
		}
	}

	if cfg.ModelMSHRs {
		for c := 0; c < cfg.Cores; c++ {
			s.l1MSHR = append(s.l1MSHR, newMSHRFile(l1MSHRs))
			s.l2MSHR = append(s.l2MSHR, newMSHRFile(l2MSHRs))
			s.llcMSHR = append(s.llcMSHR, newMSHRFile(llcMSHRs))
		}
	}

	if cfg.TrackPCSlices {
		s.pcSlices = oatable.New[pcTrack](2 * pcSlicesLimit)
	}
	s.telem = newTelemetry(s)
	s.totalTarget = cfg.Warmup + cfg.Instructions
	return s, nil
}

// policyOf returns c's replacement policy, nil for a nil cache.
func policyOf(c *cache.Cache) repl.Policy {
	if c == nil {
		return nil
	}
	return c.Policy()
}

// Built exposes the assembled policy stack (experiments introspect it).
func (s *System) Built() *policies.Built { return s.built }

// Slices exposes the LLC slice caches (experiments read per-set stats).
func (s *System) Slices() []*cache.Cache { return s.llc }

// Mesh exposes the mesh model.
func (s *System) Mesh() *noc.Mesh { return s.mesh }

// Star exposes the NOCSTAR model.
func (s *System) Star() *noc.Star { return s.star }

// DRAM exposes the memory model.
func (s *System) DRAM() *dram.DRAM { return s.ram }

// sliceFor maps a block to its LLC slice using an XOR-fold of the tag bits
// (complex addressing after [33]/[41]); using only bits above the set index
// keeps the workload generators' set-steering orthogonal to slice balance.
func (s *System) sliceFor(block uint64) int {
	if s.cfg.Cores == 1 {
		return 0
	}
	h := mem.FoldXor(block>>s.setBits, 20)
	h = stats.Mix64(h)
	if s.sliceMask != 0 && uint64(s.cfg.Cores)&(uint64(s.cfg.Cores)-1) == 0 {
		return int(h & s.sliceMask)
	}
	return int(h % uint64(s.cfg.Cores))
}

// --- access path -----------------------------------------------------------

// accessL1 runs one demand memory instruction through the hierarchy and
// returns the latency the core observes.
func (s *System) accessL1(coreID int, rec trace.Rec) uint32 {
	now := s.cores[coreID].Cycle()
	typ := mem.Load
	if rec.Write {
		typ = mem.RFO
	}
	block := mem.Block(rec.Addr)
	a := repl.Access{PC: rec.PC, Block: block, Core: coreID, Type: typ, Cycle: now}

	hit, _ := s.l1[coreID].Access(a)
	lat := s.cfg.L1Latency
	if !hit {
		lat += s.accessL2(coreID, a, now, true)
		if s.l1MSHR != nil {
			lat += s.l1MSHR[coreID].reserve(now, lat)
		}
		// FillMiss: Access above already probed and missed, and the lower
		// levels only invalidate (never install) L1 lines in between.
		ev := s.l1[coreID].FillMiss(a, typ == mem.RFO)
		if ev.Valid && ev.Dirty {
			s.writebackL2(coreID, ev.Block, now)
		}
	}
	// L1 prefetcher trains on demand accesses.
	for _, cand := range s.l1pf[coreID].Train(rec.PC, rec.Addr, hit) {
		s.issueL1Prefetch(coreID, rec.PC, cand, now)
	}
	return lat
}

// accessL2 services an L1 miss (or L1-prefetch fill) and returns latency
// beyond L1. trainPf gates L2 prefetcher training (demand traffic only).
func (s *System) accessL2(coreID int, a repl.Access, now uint64, trainPf bool) uint32 {
	hit, _ := s.l2[coreID].Access(a)
	lat := s.cfg.L2Latency
	if !hit {
		lat += s.accessLLC(coreID, a, now)
		if s.l2MSHR != nil {
			lat += s.l2MSHR[coreID].reserve(now, lat)
		}
		ev := s.l2[coreID].FillMiss(a, false)
		if ev.Valid && ev.Dirty {
			s.writebackLLC(coreID, ev.Block, now)
		}
	}
	if trainPf && a.Type.IsDemand() {
		addr := a.Block << mem.BlockShift
		for _, cand := range s.l2pf[coreID].Train(a.PC, addr, hit) {
			s.issueL2Prefetch(coreID, a.PC, cand, now)
		}
	}
	return lat
}

// accessLLC services an L2 miss at the home slice and returns latency beyond
// L2: NoC round trip + slice access, plus DRAM on a miss, plus any predictor
// penalty the policy's fill decision incurred (design decision D4).
func (s *System) accessLLC(coreID int, a repl.Access, now uint64) uint32 {
	sliceID := s.sliceFor(a.Block)
	sl := s.llc[sliceID]
	lat := s.cfg.LLCLatency + 2*s.mesh.Latency(coreID, sliceID)

	if a.Type.IsDemand() {
		s.coreLLCAccesses[coreID]++
		if s.pcSlices != nil && a.Type == mem.Load {
			s.trackPC(coreID, a.PC, sliceID)
		}
	}

	hit, _ := sl.Access(a)
	if hit {
		if s.telem != nil && a.Type.IsDemand() {
			s.telem.tick(s)
		}
		return lat
	}
	if a.Type.IsDemand() {
		s.coreLLCMisses[coreID]++
	}
	lat += s.ram.Read(a.Block<<mem.BlockShift, now+uint64(lat))
	if s.llcMSHR != nil {
		lat += s.llcMSHR[sliceID].reserve(now, lat)
	}
	ev := sl.FillMiss(a, false)
	if s.penAware[sliceID] != nil {
		lat += s.penAware[sliceID].FillPenalty()
	}
	if ev.Valid {
		s.retireLLCEviction(ev, now+uint64(lat))
	}
	if s.telem != nil && a.Type.IsDemand() {
		s.telem.tick(s)
	}
	return lat
}

// retireLLCEviction finishes an LLC eviction: dirty data goes to DRAM, and
// under an inclusive LLC the line is back-invalidated from every active
// core's private caches (any dirty private copy must also drain; idle
// cores have none).
func (s *System) retireLLCEviction(ev cache.Evicted, now uint64) {
	dirty := ev.Dirty
	if s.cfg.InclusiveLLC {
		for c := 0; c < s.cfg.Cores; c++ {
			if s.l1[c] == nil {
				continue
			}
			if d, present := s.l1[c].Invalidate(ev.Block, now); present && d {
				dirty = true
			}
			if d, present := s.l2[c].Invalidate(ev.Block, now); present && d {
				dirty = true
			}
		}
	}
	if dirty {
		s.ram.Write(ev.Block<<mem.BlockShift, now)
	}
}

// writebackL2 retires a dirty L1 eviction into L2.
func (s *System) writebackL2(coreID int, block uint64, now uint64) {
	a := repl.Access{Block: block, Core: coreID, Type: mem.Writeback, Cycle: now}
	hit, _ := s.l2[coreID].Access(a)
	if hit {
		return // Access marked it dirty
	}
	ev := s.l2[coreID].FillMiss(a, true)
	if ev.Valid && ev.Dirty {
		s.writebackLLC(coreID, ev.Block, now)
	}
}

// writebackLLC retires a dirty L2 eviction into the home LLC slice
// (non-inclusive hierarchy: writebacks allocate).
func (s *System) writebackLLC(coreID int, block uint64, now uint64) {
	sliceID := s.sliceFor(block)
	s.mesh.Latency(coreID, sliceID) // writeback traffic
	a := repl.Access{Block: block, Core: coreID, Type: mem.Writeback, Cycle: now}
	sl := s.llc[sliceID]
	hit, _ := sl.Access(a)
	if hit {
		return
	}
	ev := sl.FillMiss(a, true)
	if ev.Valid {
		s.retireLLCEviction(ev, now)
	}
}

// prefetchThrottle is the DRAM queue delay (cycles) beyond which prefetch
// requests are dropped. Hardware prefetchers back off under memory-bandwidth
// pressure (MSHR/queue occupancy throttling); without this, a fast streaming
// core can saturate the shared channels and live-lock its neighbors.
const prefetchThrottle = 500

// prefetchAllowed applies bandwidth-pressure throttling for cand.
func (s *System) prefetchAllowed(cand uint64, now uint64) bool {
	return s.ram.QueueDelay(cand, now) <= prefetchThrottle
}

// issueL1Prefetch brings cand into L1 (and below) without charging the core.
func (s *System) issueL1Prefetch(coreID int, pc, cand uint64, now uint64) {
	// Throttle before probing: both checks are side-effect free and
	// either drops the candidate, and under bandwidth pressure most
	// candidates are throttled, so most skip the probe.
	if !s.prefetchAllowed(cand, now) {
		s.prefDropped++
		return
	}
	block := mem.Block(cand)
	if _, ok := s.l1[coreID].Probe(block); ok {
		s.prefDropped++
		return
	}
	s.prefIssued++
	a := repl.Access{PC: pc, Block: block, Core: coreID, Type: mem.Prefetch, Cycle: now}
	s.accessL2(coreID, a, now, false)
	// FillMiss: the Probe above missed and accessL2 never installs L1 lines.
	ev := s.l1[coreID].FillMiss(a, false)
	if ev.Valid && ev.Dirty {
		s.writebackL2(coreID, ev.Block, now)
	}
}

// issueL2Prefetch brings cand into L2 (and below) without charging the core.
func (s *System) issueL2Prefetch(coreID int, pc, cand uint64, now uint64) {
	// Throttle before probing, as in issueL1Prefetch.
	if !s.prefetchAllowed(cand, now) {
		s.prefDropped++
		return
	}
	block := mem.Block(cand)
	if _, ok := s.l2[coreID].Probe(block); ok {
		s.prefDropped++
		return
	}
	s.prefIssued++
	a := repl.Access{PC: pc, Block: block, Core: coreID, Type: mem.Prefetch, Cycle: now}
	// The Probe above just missed and nothing ran since, so the access is a
	// known miss: record it (stats + policy observers) without re-probing.
	s.l2[coreID].AccessMiss(a)
	s.accessLLC(coreID, a, now)
	ev := s.l2[coreID].FillMiss(a, false)
	if ev.Valid && ev.Dirty {
		s.writebackLLC(coreID, ev.Block, now)
	}
}

func (s *System) trackPC(coreID int, pc uint64, sliceID int) {
	key := uint64(coreID)<<48 ^ stats.Mix64(pc)>>16
	t := s.pcSlices.Get(key)
	if t == nil {
		if s.pcSlices.Len() > pcSlicesLimit {
			s.pcSlices.Clear()
		}
		t = s.pcSlices.Insert(key)
	}
	t.slices[sliceID/64] |= 1 << uint(sliceID%64)
	t.loads++
}

// --- run loop ----------------------------------------------------------------

// RunContext executes the workload until every active core has retired
// its target instruction count. Finished cores keep running (their
// traces loop) so shared-resource contention persists, matching the
// paper's methodology. The step loop polls ctx every 1024 steps and
// aborts with a wrapped ctx.Err() once it is done. Cancellation never
// changes results — a run either completes bit-identically to an
// uncancellable run or returns an error. context.Background (whose Done
// channel is nil) costs one nil check per step, so the non-cancellable
// path is unchanged.
//
// Records come through a workload.Feed: the readers run on one producer
// goroutine that fills small per-core chunks ahead of the step loop, so
// generation overlaps simulation on a second CPU. Each core sees exactly
// its reader's record sequence, finite readers looped via Reset. Next and
// Reset are called only from that goroutine, and RunContext returns only
// after it has exited — on completion, error, cancellation or a stall —
// so the caller may inspect the readers afterwards without synchronizing.
func (s *System) RunContext(ctx context.Context) (*Result, error) {
	r, err := s.newRunner(ctx)
	if err != nil {
		return nil, err
	}
	s.feed = workload.NewFeed(s.readers)
	defer s.feed.Close()
	if _, err := r.run(); err != nil { // ungated: runs to done or an error
		return nil, err
	}
	return s.finishRun()
}

// warmupBase returns how many instructions of a core's target were consumed
// by warmup accounting (cores report instructions relative to their warmup
// snapshot). Warmup finishes for all cores at once, so the value is
// system-wide — it used to take a coreID it never read.
func (s *System) warmupBase() uint64 {
	if s.warmupDone {
		return s.cfg.Warmup
	}
	return 0
}

// step advances one core by one trace record.
func (s *System) step(coreID int) {
	var rec trace.Rec
	var ok bool
	if s.feed != nil {
		rec, ok = s.feed.Next(coreID)
	} else {
		rec, ok = s.readers[coreID].Next()
	}
	if !ok {
		return // degenerate source: empty even after a Reset
	}
	core := s.cores[coreID]
	core.AdvanceNonMem(rec.Gap)
	lat := s.accessL1(coreID, rec)
	if rec.Write {
		// Stores commit without blocking retirement.
		core.IssueMem(1)
		_ = lat
	} else {
		core.IssueMem(lat)
	}
}

// maybeFinishWarmup resets all statistics once every active core has
// retired its warmup budget.
func (s *System) maybeFinishWarmup() {
	if s.warmupDone {
		return
	}
	for c, rd := range s.readers {
		if rd != nil && s.cores[c].Instructions() < s.cfg.Warmup {
			return
		}
	}
	if s.telem != nil {
		// Close the partial warmup epoch while the cumulative counters it
		// baselines against still exist — the resets below zero them.
		s.telem.flush(s, false)
	}
	s.warmupDone = true
	for c, rd := range s.readers {
		if rd == nil {
			continue
		}
		s.cores[c].ResetStats()
		s.l1[c].ResetStats()
		s.l2[c].ResetStats()
	}
	for _, sl := range s.llc {
		sl.ResetStats()
	}
	s.ram.ResetStats()
	s.mesh.Reset()
	s.star.Reset()
	if s.built.Fabric != nil {
		s.built.Fabric.ResetStats()
	}
	for i := range s.coreLLCAccesses {
		s.coreLLCAccesses[i] = 0
		s.coreLLCMisses[i] = 0
	}
	s.prefIssued, s.prefDropped = 0, 0
	if s.pcSlices != nil {
		s.pcSlices.Clear()
	}
	if s.telem != nil {
		s.telem.warmupReset()
	}
}
