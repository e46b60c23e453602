package sim

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"drishti/internal/cache"
	"drishti/internal/mem"
	"drishti/internal/obs"
	"drishti/internal/policies"
	"drishti/internal/repl"
	"drishti/internal/trace"
	"drishti/internal/workload"
)

// This file implements lockstep batched simulation: K lanes (simulator
// instances differing only in replacement policy / DSC configuration, or
// alone-run activation) execute against one shared access stream, paying
// the workload-generation cost once instead of K times.
//
// Two sharing tiers, chosen automatically from the base config:
//
//   - Tier 1 (always legal): the raw trace.Rec stream is materialized once
//     per core into a bounded workload.Stream window; each lane reads it
//     through a cursor and simulates its full hierarchy as usual.
//
//   - Tier 2 (prefetchers off, non-inclusive LLC): the private L1/L2
//     hierarchy is additionally simulated once per core by an expStream,
//     because under those conditions private-cache behavior is identical
//     in every lane: L1 (LRU) and L2 (SRRIP) decisions depend only on the
//     access order, never on timing, and nothing below the L2 feeds back
//     into the private caches (prefetch throttling consults DRAM queue
//     timing and inclusive LLCs back-invalidate — both disabled). Lanes
//     replay the recorded outcomes (hit levels, writeback victims) and
//     simulate only their own lane-varying state: core timing, MSHRs,
//     LLC slices, policy/predictor stack, NoCs, and DRAM.
//
// Each lane is a complete System driven by its own resumable runner. The
// batch advances in rotations: in each one, every unfinished lane runs
// until it finishes or until its next scheduled core would read past the
// shared window (lane-major: one lane runs to its window edge before the
// pool hands out the next). A lane's step sequence is exactly what its
// solo run would execute, just paused at window edges, so batched results
// are bit-identical to unbatched runs (asserted per lane by the golden
// tests). Per-core window limits bound how far lanes may drift apart so
// the shared window stays small; chunks behind the slowest lane are
// recycled at each barrier.
//
// A lane's System is built the first time the lane is scheduled, and
// handed back — keeping only its Result — as soon as the lane finishes.
// The pool worker that ran it keeps the machine as its spare and builds
// the next lane it starts into it (see renew), so a batch whose run fits
// the window finishes every lane in the first rotation and allocates at
// most LaneWorkers machines instead of K. A longer run builds every lane
// in the first rotation, before any finishes, and so still allocates one
// machine per lane. Once no lane is left to start, a finished lane's
// machine is dropped, not kept.
//
// Between barriers the lanes are independent: all lane-varying state
// (cores, MSHRs, LLC slices, policy/predictor stack, NoCs, DRAM) is
// private per lane, and the shared stream window is made strictly
// read-only for the rotation by materializing it up to the window limits
// at the barrier (Stream.Ensure / expStream.ensure). runLockstep
// therefore runs the rotation's lanes on a bounded worker pool
// (Config.LaneWorkers, default min(K, GOMAXPROCS); one worker is a pool
// of one), which also materializes the per-core streams at each barrier,
// one core per task, and it merges outcomes —
// progress, completion, errors, buffered telemetry — in deterministic
// lane order at the barrier, so results and telemetry bytes are identical
// at every worker count (the workers-sweep determinism test pins this).
// On a shared telemetry sink each lane's epochs of one rotation arrive
// contiguously, lane after lane.

// batchWindow is the per-core record skew allowed between the fastest and
// slowest lane before the fast lane pauses (grown on demand if a rotation
// ever makes no progress; see runLockstep). A variable so tests can
// shrink it to exercise the deadlock-breaker growth path.
var batchWindow uint64 = 8192

// batchMemBudget bounds the estimated resident shared-window bytes; a
// batch whose estimate exceeds it runs with a smaller window (see
// lockstepWindow). A variable so tests can force the shrunk window.
var batchMemBudget = 256 << 20

// epochBuffer queues one lane's telemetry epochs so concurrent lanes
// never write the (possibly shared) real sink directly; the batch driver
// drains buffers in lane order at each rotation barrier, which reproduces
// a lane-by-lane rotation's emission order byte for byte at every worker
// count. Buffering epoch pointers is safe: the telemetry snapshotter
// allocates a fresh Epoch per flush and never writes it again.
//
// WriteEpoch is called from the lane's goroutine and drain from the
// driver, phases that the rotation barrier already separates; the mutex
// keeps the type independently safe anyway (epochs are rare — one per
// TelemetryEpoch LLC accesses — so the lock is off the hot path).
type epochBuffer struct {
	mu   sync.Mutex
	next obs.EpochSink
	q    []*obs.Epoch
	err  error // sticky first drain error
}

// WriteEpoch implements obs.EpochSink. A past drain failure is returned
// so it surfaces through the lane's own telemetry error path, exactly
// where a direct sink write would have reported it.
func (b *epochBuffer) WriteEpoch(e *obs.Epoch) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.q = append(b.q, e)
	return b.err
}

// drain forwards queued epochs to the real sink in order. Like a direct
// sink write, a failure does not stop the simulation; the sticky error
// is returned and resurfaces from later writes and finishRun.
func (b *epochBuffer) drain() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, e := range b.q {
		if err := b.next.WriteEpoch(e); err != nil && b.err == nil {
			b.err = err
		}
	}
	b.q = b.q[:0]
	return b.err
}

// Variant is one lane of a batched run: a replacement-policy point, run
// either on the full mix or as a single-core alone run. The zero value is
// a mix lane with the zero policy spec.
type Variant struct {
	// Policy replaces the base config's replacement policy for this lane.
	Policy policies.Spec
	// Alone runs the lane with only core AloneCore active (RunAlone
	// semantics: same machine, telemetry off). Alone lanes share the
	// per-core stream with mix lanes — an alone run consumes exactly the
	// records the mix run feeds that core, because generation has no
	// feedback from the simulation.
	Alone     bool
	AloneCore int

	// TelemetryTag, when non-empty, replaces the base config's
	// TelemetryTag for this lane, so K lanes sharing one sink keep
	// distinct attribution — a batched sweep cell's epochs carry the same
	// tag its serial run would. Ignored for alone lanes (telemetry off).
	TelemetryTag string
	// TelemetrySink, when non-nil, replaces the base config's
	// TelemetrySink for this lane (e.g. an obs.TagEpochs wrapper stamping
	// lane/cell attribution). Ignored for alone lanes.
	TelemetrySink obs.EpochSink
}

// RunBatchContext runs every variant lane over one shared generation of
// the mix's access streams and returns per-lane results aligned with
// variants. Each lane's result is bit-identical to running its
// configuration alone through RunMixContext (or runAloneCore for alone
// lanes). On failure the error of the lowest-indexed failing lane is
// returned and the whole batch aborts.
func RunBatchContext(ctx context.Context, base Config, variants []Variant, mix workload.Mix) ([]*Result, error) {
	if len(variants) == 0 {
		return nil, fmt.Errorf("sim: batch with no variants")
	}
	if mix.Cores() != base.Cores {
		return nil, fmt.Errorf("sim: mix %s targets %d cores, config has %d", mix.Name, mix.Cores(), base.Cores)
	}
	lanes := make([]*batchLane, len(variants))
	used := make([]bool, base.Cores) // cores any lane activates
	var allCores []int               // a mix lane's active cores
	for c := 0; c < base.Cores; c++ {
		allCores = append(allCores, c)
	}
	for i, v := range variants {
		cfg := base
		cfg.Policy = v.Policy
		cores := allCores
		if v.Alone {
			if v.AloneCore < 0 || v.AloneCore >= base.Cores {
				return nil, fmt.Errorf("sim: batch variant %d: alone core %d out of range", i, v.AloneCore)
			}
			// Alone runs are IPC calibration, not the run of record
			// (mirrors runAloneCore).
			cfg.TelemetryEpoch, cfg.TelemetrySink, cfg.TelemetryTag = 0, nil, ""
			used[v.AloneCore] = true
			cores = []int{v.AloneCore}
		} else {
			if v.TelemetrySink != nil {
				cfg.TelemetrySink = v.TelemetrySink
			}
			if v.TelemetryTag != "" {
				cfg.TelemetryTag = v.TelemetryTag
			}
			if cfg.TelemetryEpoch > 0 && cfg.TelemetryTag == "" {
				cfg.TelemetryTag = mix.Name
			}
			for c := range used {
				used[c] = true
			}
		}
		lanes[i] = &batchLane{cfg: cfg, cores: cores}
	}
	if err := mix.Validate(); err != nil {
		return nil, err
	}

	// Per-lane telemetry buffers decouple concurrently-running lanes from
	// the (possibly shared) sink; the driver drains them in lane order at
	// each barrier, so the sink sees the lane-by-lane emission byte stream
	// at every worker count. Alone lanes have telemetry off (bufs[i] nil).
	workers := base.laneWorkers(len(variants))
	bufs := make([]*epochBuffer, len(variants))
	for i, ln := range lanes {
		if ln.cfg.TelemetryEpoch > 0 && ln.cfg.TelemetrySink != nil {
			bufs[i] = &epochBuffer{next: ln.cfg.TelemetrySink}
			ln.cfg.TelemetrySink = bufs[i]
		}
	}

	tier2 := tier2Eligible(base)

	// Shared per-core streams, built only for cores some lane activates.
	po := base.Phases
	var genStart time.Time
	if po != nil {
		genStart = time.Now()
	}
	var (
		raws []*workload.Stream
		exps []*expStream
	)
	if tier2 {
		exps = make([]*expStream, base.Cores)
	} else {
		raws = make([]*workload.Stream, base.Cores)
	}
	for c := 0; c < base.Cores; c++ {
		if !used[c] {
			continue
		}
		g, err := workload.NewReader(mix, c)
		if err != nil {
			return nil, err
		}
		if tier2 {
			exps[c] = newExpStream(base, c, g)
		} else {
			raws[c] = workload.NewStream(g, 0)
		}
	}
	if po != nil {
		// Stream construction only; records are generated at the barriers
		// (runLockstep's ensure): the first window under "workload-gen" on
		// tier 1, later ones under "barrier", and every expansion on tier 2
		// under "private-replay".
		po.ObservePhase("workload-gen", -1, time.Since(genStart))
	}

	window := lockstepWindow(used, tier2)
	if err := runLockstep(ctx, lanes, raws, exps, po, workers, bufs, window); err != nil {
		return nil, err
	}
	out := make([]*Result, len(lanes))
	for i, ln := range lanes {
		if ln.finishErr != nil {
			return nil, fmt.Errorf("sim: batch lane %d (%s): %w", i, ln.cfg.Policy.DisplayName(), ln.finishErr)
		}
		if bufs[i] != nil {
			// The barriers forwarded every epoch, finishRun's final flush
			// included; a sink error stays sticky in the buffer and
			// surfaces here, still in lane order.
			if err := bufs[i].drain(); err != nil {
				return nil, fmt.Errorf("sim: batch lane %d (%s): telemetry sink: %w", i, ln.cfg.Policy.DisplayName(), err)
			}
		}
		out[i] = ln.res
	}
	return out, nil
}

// tier2Eligible reports whether the private hierarchy can be simulated
// once and shared across lanes (see the file comment for the argument).
func tier2Eligible(cfg Config) bool {
	noPf := func(name string) bool { return name == "" || name == "none" }
	return noPf(cfg.L1Prefetcher) && noPf(cfg.L2Prefetcher) && !cfg.InclusiveLLC
}

// lockstepWindow returns the per-core lane skew for a batch: batchWindow,
// shrunk when the estimated resident shared window — the window plus the
// chunks in flight on either side of it, per active core — would exceed
// batchMemBudget, but never below one chunk. A smaller window only pauses
// fast lanes sooner, so results are identical at every window.
func lockstepWindow(used []bool, tier2 bool) uint64 {
	perRec := 24 // trace.Rec
	if tier2 {
		perRec = 42 // expStream SoA columns
	}
	cores := 0
	for _, u := range used {
		if u {
			cores++
		}
	}
	window := batchWindow
	if fits := batchMemBudget/(cores*perRec) - 2*streamChunkLen; fits < int(window) {
		window = uint64(max(fits, streamChunkLen))
	}
	return window
}

// streamChunkLen mirrors workload's default chunk size for the estimate.
const streamChunkLen = 2048

// batchLane is one variant's lane. While it runs it holds its System and
// paused runner; both are built when the lane is first scheduled and
// handed back once it finishes, leaving only its Result.
type batchLane struct {
	cfg       Config
	cores     []int // active core IDs
	sys       *System
	run       *runner
	res       *Result
	finishErr error // finishRun's error, reported in lane order after the run
	done      bool
}

// laneLive, when non-nil, is told of every lane machine allocated (+1) and
// dropped (-1); a machine recycled from one lane into the next counts
// once. Tests use it to bound how many machines a batch allocates; it may
// be called from concurrent lane workers.
var laneLive func(delta int)

// laneWorker is the state one lane-running goroutine keeps across the
// lanes it runs: the machine of the lane it last finished, which the next
// lane it starts is built into.
type laneWorker struct {
	spare *System
}

// keep makes sys, a finished lane's machine, the worker's spare, dropping
// any spare it already holds.
func (w *laneWorker) keep(sys *System) {
	w.drop()
	w.spare = sys
}

// drop lets go of the worker's spare.
func (w *laneWorker) drop() {
	if w.spare != nil && laneLive != nil {
		laneLive(-1)
	}
	w.spare = nil
}

// expMarker marks a core active in a tier-2 lane; the expanded step path
// never reads it.
type expMarker struct{}

func (expMarker) Next() (trace.Rec, bool) { panic("sim: tier-2 batch lane read its raw reader") }
func (expMarker) Reset()                  { panic("sim: tier-2 batch lane reset its raw reader") }

// start builds the lane's System over the shared streams, into w's spare
// when it has one, and its runner, gated by the batch's window limits.
func (ln *batchLane) start(ctx context.Context, w *laneWorker, raws []*workload.Stream, exps []*expStream, limits []uint64) error {
	readers := make([]trace.Reader, ln.cfg.Cores)
	var expCursors []*expCursor
	if exps != nil {
		expCursors = make([]*expCursor, ln.cfg.Cores)
	}
	for _, c := range ln.cores {
		if exps != nil {
			readers[c] = expMarker{}
			expCursors[c] = &expCursor{stream: exps[c]}
		} else {
			readers[c] = raws[c].Cursor()
		}
	}
	fresh := w.spare == nil
	sys, err := renew(w.spare, ln.cfg, readers)
	if err != nil {
		w.drop() // a failed build may have reset part of the spare
		return err
	}
	w.spare = nil // sys is built into it
	if fresh && laneLive != nil {
		laneLive(1)
	}
	sys.expCursors = expCursors
	run, err := sys.newRunner(ctx)
	if err != nil {
		return err
	}
	run.limits = limits // shared: window advances reach every lane
	run.consumed = make([]uint64, len(limits))
	ln.sys, ln.run = sys, run
	return nil
}

// laneOutcome is one lane's rotation result. Outcomes are produced by
// whichever goroutine ran the lane and merged by the driver in lane
// order, which is what keeps the rotation deterministic.
type laneOutcome struct {
	stepped bool
	done    bool
	err     error
}

// advance runs lane i until it finishes or its next scheduled core would
// read past the window. A finished lane collects its Result (finishRun's
// final telemetry flush lands in the lane's buffer) and hands its machine
// to w as the spare. With po non-nil the run's wall time is reported as
// "lane-run" from the calling pool worker (see the PhaseObserver
// contract).
func (ln *batchLane) advance(i int, w *laneWorker, po PhaseObserver) laneOutcome {
	var t0 time.Time
	if po != nil {
		t0 = time.Now()
	}
	before := ln.run.guard
	done, err := ln.run.run()
	if po != nil {
		po.ObservePhase("lane-run", i, time.Since(t0))
	}
	if err != nil {
		return laneOutcome{err: fmt.Errorf("sim: batch lane %d: %w", i, err)}
	}
	stepped := ln.run.guard != before
	if done {
		ln.res, ln.finishErr = ln.sys.finishRun()
		w.keep(ln.sys)
		ln.sys, ln.run = nil, nil
	}
	return laneOutcome{stepped: stepped, done: done}
}

// runLockstep drives every lane in rotations until all finish. Per-core
// limits bound lane skew to window records; the floor (lowest-position)
// lane of a core is never gated, and if cross-core window shapes ever
// block every lane in one rotation, the limits grow by a window so
// progress resumes.
//
// A lane's machine is built the first time the lane is scheduled — in the
// first rotation, on the goroutine that runs it — so a lane that fails to
// build aborts the batch at that rotation's barrier, with the error text a
// build failure always had.
//
// Each rotation's lanes run on a pool of workers goroutines; one worker
// is a pool of one on the same path. That is race-free because the
// barrier materializes the shared streams up to the window limits before
// lanes run (so the lane phase only reads them — a runner never steps
// past limits[c], and telemetry goes to per-lane buffers), and it is
// deterministic because every unfinished lane runs to the same window
// edge per rotation regardless of worker count and the outcomes —
// progress OR, completion, the lowest-lane error, buffered epochs — merge
// in lane order at the barrier. A failing rotation returns the lowest
// failing lane's error and drains telemetry only through that lane, so a
// sink receives the same bytes at every worker count. The rotation
// sequence, and with it the deadlock-breaker growth path, is therefore
// identical at every worker setting. The same pool materializes the
// per-core streams at each barrier, one task per core: no lane runs
// then, and each core's stream is independent of the others.
//
// When po is non-nil, per-lane run time is reported per rotation
// ("lane-run", from the pool worker), the first window's generation on
// tier 1 ("workload-gen"), the wall time of every tier-2 materialization
// that expanded records ("private-replay"), barrier time once at the end
// ("barrier"), and each deadlock-breaker growth as a zero-duration
// "window-grow"; the shared phases are reported from the driver, and
// timing wraps existing work and never alters it.
func runLockstep(ctx context.Context, lanes []*batchLane, raws []*workload.Stream, exps []*expStream, po PhaseObserver, workers int, bufs []*epochBuffer, window uint64) error {
	cores := 0
	if raws != nil {
		cores = len(raws)
	} else {
		cores = len(exps)
	}
	limits := make([]uint64, cores)
	for c := range limits {
		limits[c] = window
	}

	// drainTo forwards buffered lane telemetry to the real sinks, in lane
	// order, up to and including lane last — a lane-by-lane rotation's
	// emission order. Sink errors stay sticky in the buffer and surface
	// through the lane's own telemetry error path.
	drainTo := func(last int) {
		for i := 0; i <= last && i < len(bufs); i++ {
			if bufs[i] != nil {
				bufs[i].drain()
			}
		}
	}

	// schedule runs lane i for one rotation on worker w, building it first
	// if this is its first. Every lane starts in the first rotation, so
	// once none is left to start a finished lane's machine is dropped at
	// once instead of kept as a spare nothing will be built into.
	var unstarted atomic.Int64
	unstarted.Store(int64(len(lanes)))
	schedule := func(i int, w *laneWorker) laneOutcome {
		ln := lanes[i]
		if ln.sys == nil {
			unstarted.Add(-1)
			if err := ln.start(ctx, w, raws, exps, limits); err != nil {
				return laneOutcome{err: fmt.Errorf("sim: batch lane %d (%s): %w", i, ln.cfg.Policy.DisplayName(), err)}
			}
		}
		o := ln.advance(i, w, po)
		if o.done && unstarted.Load() == 0 {
			w.drop()
		}
		return o
	}

	outs := make([]laneOutcome, len(lanes))
	// One laneWorker per pool goroutine. Each is touched only by its
	// goroutine while tasks run and by the driver once they are all idle,
	// after wg.Wait or on return, when the spares are dropped.
	pool := make([]laneWorker, workers)
	defer func() {
		for w := range pool {
			pool[w].drop()
		}
	}()
	// Room for one phase's sends, a lane or a core each, so the driver
	// never blocks handing them out.
	tasks := make(chan func(*laneWorker), max(len(lanes), cores))
	defer close(tasks)
	var wg sync.WaitGroup
	for w := range pool {
		go func() {
			for task := range tasks {
				task(&pool[w])
				wg.Done()
			}
		}()
	}

	// ensure materializes every shared stream up to its window limit, one
	// task per core, so the following lane phase never mutates shared
	// state — the invariant that makes concurrent lanes legal. The driver
	// reports its wall time: the first call's on tier 1 as "workload-gen",
	// and on tier 2 any call's that expanded records as "private-replay".
	var expanded atomic.Bool
	ensureCore := func(c int) {
		if raws != nil && raws[c] != nil {
			raws[c].Ensure(limits[c])
		}
		if exps != nil && exps[c] != nil && exps[c].ensure(limits[c]) {
			expanded.Store(true)
		}
	}
	ensure := func(first bool) {
		var t0 time.Time
		if po != nil {
			t0 = time.Now()
		}
		for c := 0; c < cores; c++ {
			wg.Add(1)
			tasks <- func(*laneWorker) { ensureCore(c) }
		}
		wg.Wait()
		replayed := expanded.Swap(false)
		if po == nil {
			return
		}
		if raws != nil && first {
			po.ObservePhase("workload-gen", -1, time.Since(t0))
		} else if replayed {
			po.ObservePhase("private-replay", -1, time.Since(t0))
		}
	}

	var barrierDur time.Duration
	live := len(lanes)
	ensure(true)
	for live > 0 {
		// Lane phase: every unfinished lane runs to its window edge against
		// the frozen window.
		for i, ln := range lanes {
			if ln.done {
				continue
			}
			wg.Add(1)
			tasks <- func(w *laneWorker) { outs[i] = schedule(i, w) }
		}
		wg.Wait()

		// Barrier: merge outcomes in lane order, then advance the window.
		stepped := false
		for i, ln := range lanes {
			if ln.done {
				continue
			}
			o := outs[i]
			if o.err != nil {
				// Lanes ≤ i emitted the epochs a lane-by-lane rotation
				// would have before aborting; later lanes may have run
				// this rotation too, but their buffers are dropped with
				// the batch.
				drainTo(i)
				return o.err
			}
			if o.stepped {
				stepped = true
			}
			if o.done {
				ln.done = true
				live--
			}
		}
		drainTo(len(bufs) - 1)
		if live == 0 {
			break
		}
		var b0 time.Time
		if po != nil {
			b0 = time.Now()
		}
		// Advance the window: recycle everything below the slowest
		// unfinished lane and let the fastest run a window past it.
		for c := 0; c < cores; c++ {
			floor, any := ^uint64(0), false
			for _, ln := range lanes {
				if ln.done {
					continue
				}
				for _, lc := range ln.cores {
					if lc == c {
						if p := ln.run.consumed[c]; p < floor {
							floor = p
						}
						any = true
						break
					}
				}
			}
			if !any {
				continue
			}
			if raws != nil && raws[c] != nil {
				raws[c].Release(floor)
			}
			if exps != nil && exps[c] != nil {
				exps[c].release(floor)
			}
			limit := floor + window
			if !stepped && limit <= limits[c] {
				// Deadlock breaker: mutually-blocked window shapes across
				// different cores can stall a rotation; widen until a lane
				// moves. Results are unaffected — limits only pause lanes.
				limit = limits[c] + window
				if po != nil {
					po.ObservePhase("window-grow", -1, 0)
				}
			}
			limits[c] = limit
		}
		ensure(false)
		if po != nil {
			barrierDur += time.Since(b0)
		}
	}
	if po != nil {
		po.ObservePhase("barrier", -1, barrierDur)
	}
	return nil
}

// --- tier-2 expanded stream --------------------------------------------------

// Expanded-record flag bits.
const (
	expWrite uint8 = 1 << iota // store (RFO)
	expL1Hit                   // hit in L1; no lane-side work beyond timing
	expL2Hit                   // L1 miss that hit in L2
	expWB1                     // L2 demand fill evicted a dirty line (wb1)
	expWB2                     // L1 eviction's L2 writeback evicted dirty (wb2)
)

// expChunk is one chunk of expanded records in SoA layout. loc[i] is the
// number of consecutive core-local records starting at i (0 when record i
// itself is not local): a record is local when it never leaves the private
// hierarchy — an L1 hit, or an L2 hit whose L1 eviction caused no L2
// writeback miss (no expWB2) — so replaying it touches only the issuing
// core's own state (cycle/ROB counters and its per-core MSHR), never the
// lane-shared LLC/NoC/DRAM. Lanes replay whole local runs under a single
// scheduler step (see stepExpandedN).
type expChunk struct {
	gap   []uint32
	flags []uint8
	loc   []uint16
	pc    []uint64
	block []uint64
	wb1   []uint64
	wb2   []uint64
}

func newExpChunk(n int) *expChunk {
	return &expChunk{
		gap:   make([]uint32, 0, n),
		flags: make([]uint8, 0, n),
		loc:   make([]uint16, 0, n),
		pc:    make([]uint64, 0, n),
		block: make([]uint64, 0, n),
		wb1:   make([]uint64, 0, n),
		wb2:   make([]uint64, 0, n),
	}
}

func (ck *expChunk) reset() {
	ck.gap = ck.gap[:0]
	ck.flags = ck.flags[:0]
	ck.loc = ck.loc[:0]
	ck.pc = ck.pc[:0]
	ck.block = ck.block[:0]
	ck.wb1 = ck.wb1[:0]
	ck.wb2 = ck.wb2[:0]
}

// annotateLocalRuns fills loc after a chunk is fully expanded. Runs never
// cross chunk boundaries (a lane just takes two fast steps).
func (ck *expChunk) annotateLocalRuns() {
	run := uint16(0)
	for j := len(ck.flags) - 1; j >= 0; j-- {
		f := ck.flags[j]
		if f&expL1Hit != 0 || (f&expL2Hit != 0 && f&expWB2 == 0) {
			run++
		} else {
			run = 0
		}
		ck.loc[j] = run
	}
}

// expChunkLen is the expansion granularity.
const expChunkLen = 2048

// expStream is the tier-2 shared stream for one core: each raw record runs
// through the core's private L1/L2 hierarchy exactly once (in the same
// operation order as System.accessL1/accessL2/writebackL2), and the
// outcome — hit level, demand block, and any writeback victims — is
// recorded for every lane to replay. The private caches here see
// Access.Cycle zero, which is safe because neither the cache bookkeeping
// nor the L1/L2 policies (LRU, SRRIP) read it.
type expStream struct {
	src    *trace.LoopReader
	coreID int
	l1, l2 *cache.Cache
	base   uint64 // absolute index of chunks[0]'s first record
	next   uint64 // absolute index of the first unexpanded record
	chunks []*expChunk
	free   []*expChunk
	done   bool
}

func newExpStream(cfg Config, coreID int, src trace.Reader) *expStream {
	// Private caches constructed exactly as System.New does; cache.New only
	// fails on geometry errors, which cfg.Validate has already excluded.
	l1, err := cache.New(cache.Config{Name: fmt.Sprintf("exp-l1d-%d", coreID), Sets: cfg.l1Sets(), Ways: cfg.L1Ways},
		repl.NewLRU(cfg.l1Sets(), cfg.L1Ways))
	if err != nil {
		panic(err)
	}
	l2, err := cache.New(cache.Config{Name: fmt.Sprintf("exp-l2-%d", coreID), Sets: cfg.l2Sets(), Ways: cfg.L2Ways},
		repl.NewSRRIP(cfg.l2Sets(), cfg.L2Ways))
	if err != nil {
		panic(err)
	}
	return &expStream{src: trace.NewLoopReader(src), coreID: coreID, l1: l1, l2: l2}
}

// fill expands one chunk of raw records through the private hierarchy.
func (e *expStream) fill() bool {
	if e.done {
		return false
	}
	var ck *expChunk
	if n := len(e.free); n > 0 {
		ck, e.free = e.free[n-1], e.free[:n-1]
		ck.reset()
	} else {
		ck = newExpChunk(expChunkLen)
	}
	for len(ck.gap) < expChunkLen {
		rec, ok := e.src.Next() // loops a finite trace, like workload.Feed
		if !ok {
			e.done = true
			break
		}
		e.expand(ck, rec)
	}
	if len(ck.gap) == 0 {
		return false
	}
	ck.loc = ck.loc[:len(ck.gap)]
	ck.annotateLocalRuns()
	e.chunks = append(e.chunks, ck)
	e.next += uint64(len(ck.gap))
	return true
}

// expand runs one record through L1/L2 and appends its outcome. The
// private-cache operation order matches the serial path exactly:
// l1.Access → l2.Access → l2.FillMiss → l1.FillMiss → (writeback)
// l2.Access → l2.FillMiss.
func (e *expStream) expand(ck *expChunk, rec trace.Rec) {
	block := mem.Block(rec.Addr)
	typ := mem.Load
	var flags uint8
	if rec.Write {
		typ = mem.RFO
		flags = expWrite
	}
	a := repl.Access{PC: rec.PC, Block: block, Core: e.coreID, Type: typ}
	var wb1, wb2 uint64
	if hit, _ := e.l1.Access(a); hit {
		flags |= expL1Hit
	} else {
		if hit2, _ := e.l2.Access(a); hit2 {
			flags |= expL2Hit
		} else {
			if ev := e.l2.FillMiss(a, false); ev.Valid && ev.Dirty {
				flags |= expWB1
				wb1 = ev.Block
			}
		}
		if ev := e.l1.FillMiss(a, typ == mem.RFO); ev.Valid && ev.Dirty {
			// System.writebackL2, minus the lane-side LLC traffic.
			wa := repl.Access{Block: ev.Block, Core: e.coreID, Type: mem.Writeback}
			if whit, _ := e.l2.Access(wa); !whit {
				if evw := e.l2.FillMiss(wa, true); evw.Valid && evw.Dirty {
					flags |= expWB2
					wb2 = evw.Block
				}
			}
		}
	}
	ck.gap = append(ck.gap, rec.Gap)
	ck.flags = append(ck.flags, flags)
	ck.pc = append(ck.pc, rec.PC)
	ck.block = append(ck.block, block)
	ck.wb1 = append(ck.wb1, wb1)
	ck.wb2 = append(ck.wb2, wb2)
}

// ensure expands records until every position below pos is replayable (or
// the source is degenerate) and reports whether it expanded any. Like
// workload.Stream.Ensure it runs at a barrier, on one goroutine per
// stream, while no cursor reads: after ensure(pos), lane reads strictly
// below pos never mutate the stream, so they are safe from concurrent
// goroutines until the next ensure/release.
func (e *expStream) ensure(pos uint64) bool {
	n := e.next
	for e.next < pos && e.fill() {
	}
	return e.next != n
}

// release recycles chunks wholly below min.
func (e *expStream) release(min uint64) {
	drop := 0
	for drop < len(e.chunks) &&
		len(e.chunks[drop].gap) == expChunkLen &&
		e.base+uint64(drop+1)*expChunkLen <= min {
		drop++
	}
	if drop == 0 {
		return
	}
	e.free = append(e.free, e.chunks[:drop]...)
	e.chunks = append(e.chunks[:0], e.chunks[drop:]...)
	e.base += uint64(drop) * expChunkLen
}

// expCursor is one lane's position in a core's expanded stream.
type expCursor struct {
	stream *expStream
	pos    uint64
}

// stepExpandedN replays expanded records for coreID and returns how many
// it consumed (0 only for a degenerate empty source). The slow path
// replays one record — the lane-side half of System.step/accessL1/accessL2
// (core timing, MSHR reservations, LLC and writeback traffic) with the
// private-hierarchy outcomes read from the shared expansion; latency
// arithmetic and call order mirror the serial path operation for
// operation.
//
// The fast path replays a burst of core-local records (loc column) under
// one scheduler step, eliding the per-record heap/gate/loop overhead. The
// burst reproduces the serial schedule exactly — not just equivalently:
// it continues only while the serial heap would keep picking this core
// (its (cycle, coreID) stays lexicographically at or below the heap's
// runner-up, which is constant during the burst because only the stepped
// core's key ever changes), and it breaks at any record where the serial
// step loop would act between steps (finish crossing with no cores left,
// warmup crossing). Per-record CPU ops still run individually because ROB
// occupancy (lane-specific miss latencies in flight) makes each record's
// timing state-dependent.
func (r *runner) stepExpandedN(coreID int, budget uint64) uint64 {
	s := r.s
	cur := s.expCursors[coreID]
	e := cur.stream
	// The barrier pre-expands the window (ensure), so under lockstep this
	// loop only runs for a degenerate empty source, where fill is a pure
	// read of e.done — concurrent lanes stay race-free either way.
	for cur.pos >= e.next {
		if !e.fill() {
			return 0 // degenerate empty source; mirrors step's bail-out
		}
	}
	off := cur.pos - e.base
	ck := e.chunks[off/expChunkLen]
	i := int(off % expChunkLen)

	if run := uint64(ck.loc[i]); run > 1 {
		if run > budget {
			run = budget // never read past the shared-window limit
		}
		k2, id2 := r.sched.second()
		if n := uint64(r.replayLocalRun(coreID, ck, i, int(run), k2, id2)); n > 0 {
			cur.pos += n
			return n
		}
		// 0 = the scheduled record ends the whole run; single-step it.
	}
	cur.pos++

	core := s.cores[coreID]
	core.AdvanceNonMem(ck.gap[i])
	flags := ck.flags[i]
	now := core.Cycle()
	lat := s.cfg.L1Latency
	if flags&expL1Hit == 0 {
		latL2 := s.cfg.L2Latency
		if flags&expL2Hit == 0 {
			typ := mem.Load
			if flags&expWrite != 0 {
				typ = mem.RFO
			}
			a := repl.Access{PC: ck.pc[i], Block: ck.block[i], Core: coreID, Type: typ, Cycle: now}
			latL2 += s.accessLLC(coreID, a, now)
			if s.l2MSHR != nil {
				latL2 += s.l2MSHR[coreID].reserve(now, latL2)
			}
			if flags&expWB1 != 0 {
				s.writebackLLC(coreID, ck.wb1[i], now)
			}
		}
		lat += latL2
		if s.l1MSHR != nil {
			lat += s.l1MSHR[coreID].reserve(now, lat)
		}
		if flags&expWB2 != 0 {
			s.writebackLLC(coreID, ck.wb2[i], now)
		}
	}
	if flags&expWrite != 0 {
		// Stores commit without blocking retirement.
		core.IssueMem(1)
	} else {
		core.IssueMem(lat)
	}
	return 1
}

// replayLocalRun replays up to n records of ck starting at i — all
// core-local — for coreID, and returns how many it executed (0 means the
// scheduled record must run as a single step instead). Per-record ops are
// byte-for-byte the slow path's local subset: L1 hits cost L1Latency; L2
// hits cost L1+L2 latency plus any L1-MSHR wait (per-core state, so still
// local).
//
// Two burst disciplines, both bit-identical to serial:
//
//   - Exact (pre-warmup, or telemetry live): the burst continues only
//     while the serial heap would keep picking this core — (cycle,
//     coreID) lexicographically at or below the runner-up (k2, id2) — and
//     breaks after a warmup crossing so the outer loop's
//     maybeFinishWarmup fires on the same step as serial. The step
//     sequence is exactly serial's, so global events that snapshot other
//     cores (warmup reset, telemetry epochs) see identical state.
//
//   - Atomic (post-warmup, no telemetry): the burst runs to its end
//     regardless of the runner-up. Equivalence: executed heap keys are
//     non-decreasing, so shared-state steps (the only steps that touch
//     LLC/NoC/DRAM/fabric) still execute in (cycle, coreID) order —
//     local records can't reorder them — and per-core timing is
//     schedule-independent. Overshooting the run's final step with local
//     records is invisible: collect() reads only the finishedAt
//     snapshots (captured per record, below) and shared-state counters.
//     The one step that must not execute early is the run-terminating
//     crossing itself — steps with smaller keys on other cores still
//     owe shared-state work — so when this core is the last unfinished
//     one, the burst stops short of the crossing record and lets it run
//     as a single step at its true heap key.
func (r *runner) replayLocalRun(coreID int, ck *expChunk, i, n int, k2 uint64, id2 int32) int {
	s := r.s
	core := s.cores[coreID]
	l1Lat := s.cfg.L1Latency
	l2Lat := l1Lat + s.cfg.L2Latency
	id := int32(coreID)
	done := s.finishedAt[coreID].done
	atomic := s.warmupDone && s.telem == nil
	lastCore := atomic && !done && r.remaining == 1
	var mshr *mshrFile
	if s.l1MSHR != nil {
		mshr = s.l1MSHR[coreID]
	}
	// Express the finish/warmup crossings as retired-instruction budgets so
	// the per-record checks are one counter compare: record j retires
	// gap[j]+1 instructions. A warmup budget is only needed while this core
	// is still below the warmup line — once it has crossed, further local
	// records can't make maybeFinishWarmup newly fire (the other cores'
	// counts don't move during the burst), exactly as in serial stepping.
	const never = ^uint64(0)
	needF := never // instructions until this core's finish crossing
	if !done {
		needF = s.totalTarget - s.warmupBase() - core.Instructions()
	}
	needW := never // instructions until this core first crosses warmup
	if !s.warmupDone && core.Instructions() < s.cfg.Warmup {
		needW = s.cfg.Warmup - core.Instructions()
	}
	gaps := ck.gap[i : i+n]
	fls := ck.flags[i : i+n]
	var cum uint64
	for j := 0; j < n; j++ {
		gap := gaps[j]
		if atomic {
			if lastCore && cum+uint64(gap)+1 >= needF {
				return j // run-ending step executes at its true heap key
			}
		} else if j > 0 {
			if cyc := core.Cycle(); cyc > k2 || (cyc == k2 && id > id2) {
				return j // serial heap would pick the runner-up now
			}
		}
		if fl := fls[j]; fl&expL1Hit != 0 || mshr == nil {
			// Fixed latency — fused single-pass retire.
			lat := l1Lat
			if fl&expL1Hit == 0 {
				lat = l2Lat
			}
			if fl&expWrite != 0 {
				lat = 1 // stores commit without blocking retirement
			}
			core.Retire(gap, lat)
		} else {
			// L2 hit with an MSHR: the wait depends on the post-gap cycle.
			core.AdvanceNonMem(gap)
			lat := l2Lat + mshr.reserve(core.Cycle(), l2Lat)
			if fl&expWrite != 0 {
				core.IssueMem(1)
			} else {
				core.IssueMem(lat)
			}
		}
		cum += uint64(gap) + 1
		if cum >= needF {
			s.finishedAt[coreID] = recorded{
				done:   true,
				cycles: core.Cycles(),
				instrs: core.Instructions(),
				ipc:    core.IPC(),
			}
			done = true
			needF = never
			if r.remaining--; r.remaining == 0 {
				return j + 1 // exact mode: the whole run ends on this step
			}
		}
		if cum >= needW {
			return j + 1 // outer loop must run maybeFinishWarmup now
		}
	}
	return n
}
