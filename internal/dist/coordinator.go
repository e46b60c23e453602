// Package dist distributes job-service sweeps across a fleet of worker
// processes. The coordinator — a mode of cmd/drishti-served — decomposes a
// JobRequest into its sweep cells (the same (workload, policy) grid the
// single-node executor walks), serves whatever the shared content-addressed
// store already holds, and hands the remainder to registered workers over
// HTTP with lease-based assignment: a worker that dies, hangs, or misses
// its heartbeats simply lets its leases expire, and the cells are
// reassigned with bounded retry and exponential backoff. Results merge back
// in deterministic cell order, so a fleet sweep is bit-identical to the
// same sweep run on one node.
//
// Workers poll the coordinator (register → heartbeat → lease → complete);
// the coordinator never dials a worker, so workers behind NAT or in
// containers need no reachable address. The wire schema is
// internal/serve/api, shared verbatim by both sides.
package dist

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"drishti/internal/obs"
	"drishti/internal/obs/trace"
	"drishti/internal/ring"
	"drishti/internal/serve/api"
	"drishti/internal/sim"
	"drishti/internal/store"
)

// CoordinatorOptions configure a Coordinator. Zero values take the
// documented defaults.
type CoordinatorOptions struct {
	// StoreDir roots the content-addressed result store the coordinator
	// checks before distributing a cell. Pointing workers at the same
	// directory (shared filesystem) extends the dedup fleet-wide, but is
	// not required — completed cells are also written back here.
	StoreDir string

	// Store, when non-nil, overrides the store opened from StoreDir —
	// scaled-out fleets hand every coordinator the same sharded store
	// handle (store.OpenSharded) instead of a private directory.
	Store *store.Store

	// LeaseTTL bounds how long a worker may hold a cell before it is
	// reassigned (default 30s).
	LeaseTTL time.Duration

	// WorkerTTL declares a worker dead after this much heartbeat silence;
	// its leases are reassigned (default 45s).
	WorkerTTL time.Duration

	// PollInterval is the idle poll cadence suggested to workers at
	// registration (default 500ms).
	PollInterval time.Duration

	// SweepEvery is the coordinator's own expiry-scan cadence while a job
	// is in flight (default LeaseTTL/4, clamped to [25ms, 1s]).
	SweepEvery time.Duration

	// MaxCellRetries bounds reassignments per cell beyond its first
	// attempt; exhausting it fails the job (default 3).
	MaxCellRetries int

	// RetryBackoff is the base of the exponential backoff a retried cell
	// waits before redispatch (default 100ms, doubling, capped at 5s).
	RetryBackoff time.Duration

	// Logger receives one structured line per fleet transition (default
	// discard).
	Logger *slog.Logger

	// Registry receives fleet metrics (default the process registry).
	Registry *obs.Registry

	// Trace, when non-nil, enables distributed tracing: the coordinator
	// opens decompose and lease spans, propagates trace context on lease
	// grants, and records the spans workers ship back on completion.
	// Share the recorder with the owning serve.Service so coordinator and
	// worker spans join the job's tree.
	Trace *trace.Recorder

	// Self is this coordinator's advertised base URL (scheme://host:port)
	// in a multi-coordinator fleet; peers call back to it with forwarded
	// cell completions. Required when Peers is non-empty.
	Self string

	// Peers are the other coordinators' base URLs. Self and Peers together
	// form a consistent-hash ring over api.CellKey: each sweep cell has
	// exactly one owning coordinator, agreed on by every member without
	// coordination. Empty means single-coordinator mode (no forwarding).
	Peers []string

	// ForwardTTL bounds how long a forwarded cell may stay unresolved at
	// its owner before the origin re-owns it and runs it itself (default
	// 2 x LeaseTTL). The content-addressed store makes the duplicate
	// execution idempotent; the first completion per cell wins.
	ForwardTTL time.Duration

	// Client performs peer-to-peer HTTP calls (default: a client with a
	// 30s timeout).
	Client *http.Client
}

func (o CoordinatorOptions) withDefaults() CoordinatorOptions {
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = 30 * time.Second
	}
	if o.WorkerTTL <= 0 {
		o.WorkerTTL = 45 * time.Second
	}
	if o.PollInterval <= 0 {
		o.PollInterval = 500 * time.Millisecond
	}
	if o.SweepEvery <= 0 {
		o.SweepEvery = o.LeaseTTL / 4
		if o.SweepEvery < 25*time.Millisecond {
			o.SweepEvery = 25 * time.Millisecond
		}
		if o.SweepEvery > time.Second {
			o.SweepEvery = time.Second
		}
	}
	if o.MaxCellRetries == 0 {
		o.MaxCellRetries = 3
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = 100 * time.Millisecond
	}
	if o.ForwardTTL <= 0 {
		o.ForwardTTL = 2 * o.LeaseTTL
	}
	if o.Client == nil {
		o.Client = &http.Client{Timeout: 30 * time.Second}
	}
	if o.Logger == nil {
		o.Logger = obs.Discard()
	}
	if o.Registry == nil {
		o.Registry = obs.Default()
	}
	return o
}

// workerState is one registered worker. Guarded by the coordinator mutex.
type workerState struct {
	id       string
	name     string
	capacity int
	lastBeat time.Time
	leases   map[string]*cellState // by lease ID
	done     uint64
}

// cellState is one sweep cell in flight. Guarded by the coordinator mutex.
// A cell is in exactly one place at a time: the pending queue, an active
// lease, forwarded to a peer (forwardDeadline set), or resolved.
type cellState struct {
	job      *fleetJob
	spec     api.CellSpec
	policy   string // DisplayName, for the CellResult and error messages
	workload string
	mixName  string
	groupKey string // lockstep batch group (batchGroupKey); never on the wire

	attempts  int       // lease grants + local adoptions
	notBefore time.Time // backoff gate for redispatch
	lastErr   string

	// Lease fields; zero when pending.
	leaseID   string
	workerID  string
	deadline  time.Time
	grantedAt time.Time         // lease-grant instant, for the latency histogram
	span      *trace.ActiveSpan // lease span, ended at release; nil when tracing is off

	// forwardDeadline, when non-zero, marks the cell as handed to a peer
	// coordinator; past it, the origin re-owns the cell (sweepLocked).
	forwardDeadline time.Time

	resolved bool
}

// fleetJob is one distributed job. results is indexed by cell index, so
// assembly order never depends on completion order.
type fleetJob struct {
	id        string
	results   []api.CellResult
	remaining int
	hits      int
	misses    int
	err       error
	done      chan struct{}
	abandoned bool
	trace     trace.SpanContext // job span context; lease spans parent here

	// sink streams each resolved cell to the owning service (nil when the
	// caller does not stream). Called under the coordinator mutex — safe
	// because the service never calls back into the coordinator while
	// holding its own mutex (lock order: coordinator.mu → serve.mu). For
	// remote jobs the sink spawns the completion callback goroutine
	// instead, so no HTTP happens under the lock.
	sink func(index int, cell api.CellResult)

	// Multi-coordinator fields. On the origin side, forwarded maps cell
	// index → cellState for cells currently at a peer. On the owner side,
	// remote marks a batch adopted on behalf of origin; a remote cell that
	// exhausts its retries fails alone via onCellFailed (an error callback
	// to the origin) instead of failing the whole batch.
	forwarded    map[int]*cellState
	remote       bool
	origin       string
	onCellFailed func(index int, why string)
}

func (j *fleetJob) finished() bool {
	select {
	case <-j.done:
		return true
	default:
		return false
	}
}

// Coordinator owns the fleet: worker registration, the pending-cell queue,
// active leases, and the merge of completed cells back into job results.
// It implements serve.Distributor.
type Coordinator struct {
	opts CoordinatorOptions
	st   *store.Store
	log  *slog.Logger
	ring *ring.Ring // nil in single-coordinator mode

	mu      sync.Mutex
	workers map[string]*workerState
	pending []*cellState
	leases  map[string]*cellState
	jobs    map[string]*fleetJob // origin-side jobs, for forwarded-cell callbacks
	wseq    int
	lseq    int

	gWorkers, gLeases, gPending            *obs.Gauge
	cExpired, cCompleted, cRetried, cLocal *obs.Counter
	cResolved, cFromStore                  *obs.Counter
	cForwarded, cRemote, cReowned          *obs.Counter
	hLeaseLatency                          *obs.Histogram
	gBatchLanes                            *obs.Gauge
}

// NewCoordinator opens the store and prepares an empty fleet. The
// coordinator has no background goroutines: expiry sweeps piggyback on
// worker polls and on each in-flight job's wait loop, so there is nothing
// to shut down.
func NewCoordinator(opts CoordinatorOptions) (*Coordinator, error) {
	opts = opts.withDefaults()
	st := opts.Store
	if st == nil {
		var err error
		st, err = store.Open(opts.StoreDir)
		if err != nil {
			return nil, err
		}
		st.Attach(opts.Registry, "fleet_store")
	}
	var rg *ring.Ring
	if len(opts.Peers) > 0 {
		if opts.Self == "" {
			return nil, fmt.Errorf("dist: Peers configured without Self; this coordinator needs an advertised URL")
		}
		rg = ring.New(append([]string{opts.Self}, opts.Peers...), 0)
	}
	reg := opts.Registry
	return &Coordinator{
		opts:    opts,
		st:      st,
		log:     opts.Logger,
		ring:    rg,
		workers: make(map[string]*workerState),
		leases:  make(map[string]*cellState),
		jobs:    make(map[string]*fleetJob),

		gWorkers:   reg.Gauge("fleet_workers_alive"),
		gLeases:    reg.Gauge("fleet_leases_active"),
		gPending:   reg.Gauge("fleet_cells_pending"),
		cExpired:   reg.Counter("fleet_leases_expired"),
		cCompleted: reg.Counter("fleet_cells_completed"),
		cRetried:   reg.Counter("fleet_cells_retried"),
		cLocal:     reg.Counter("fleet_cells_local"),
		cResolved:  reg.Counter("fleet_cells_resolved"),
		cFromStore: reg.Counter("fleet_cells_from_store"),
		cForwarded: reg.Counter("fleet_cells_forwarded"),
		cRemote:    reg.Counter("fleet_cells_remote"),
		cReowned:   reg.Counter("fleet_forwards_reowned"),
		// Grant→complete wall time; sweep cells run tens of ms to tens of
		// seconds, so 100ms buckets over 64 slots cover the useful range.
		hLeaseLatency: reg.Histogram("fleet_lease_latency_ms", 0, 100, 64),
		gBatchLanes:   reg.Gauge("worker_batch_lane_count"),
	}, nil
}

// Store exposes the coordinator's result store (tests read its counters).
func (c *Coordinator) Store() *store.Store { return c.st }

// RunJob implements serve.Distributor: decompose, distribute, merge. With
// no live workers it declines with api.ErrNoWorkers so the service runs
// the job locally. If every worker dies mid-job, the coordinator itself
// adopts the remaining cells (local fallback) rather than stranding the
// job until a worker returns.
func (c *Coordinator) RunJob(ctx context.Context, jobID string, req api.JobRequest, sink func(index int, cell api.CellResult)) (*api.JobResult, error) {
	c.mu.Lock()
	c.sweepLocked(time.Now())
	alive := len(c.workers)
	c.mu.Unlock()
	// With peers, a locally-empty fleet can still distribute: peer-owned
	// cells forward, and self-owned cells fall to the local-adoption path.
	if alive == 0 && c.ring == nil {
		return nil, api.ErrNoWorkers
	}

	// Decompose span (covers the per-cell store checks); the job span
	// context arrives from the service via ctx and parents every lease.
	parent := trace.FromContext(ctx)
	dspan := c.opts.Trace.Tracer().Start(parent, "decompose")
	job, cells, err := c.decompose(jobID, req, sink)
	if err != nil {
		dspan.SetAttr("error", err.Error())
		dspan.End()
		return nil, err
	}
	job.trace = parent
	dspan.SetAttr("cells", strconv.Itoa(len(job.results)))
	dspan.SetAttr("storeHits", strconv.Itoa(job.hits))
	dspan.End()
	if job.remaining == 0 { // whole sweep served from the store
		return c.assemble(job), nil
	}

	// Register the job for peer callbacks before any cell can leave this
	// process, then hand peer-owned cells to their ring owners.
	c.mu.Lock()
	c.jobs[jobID] = job
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(c.jobs, jobID)
		c.mu.Unlock()
	}()
	forwarded := 0
	if c.ring != nil {
		cells = c.distribute(job, cells, parent)
		forwarded = len(job.results) - job.hits - len(cells)
	}

	c.mu.Lock()
	c.pending = append(c.pending, cells...)
	c.gPending.Set(float64(len(c.pending)))
	c.mu.Unlock()
	c.log.Info("job distributed", "job", jobID, "cells", len(job.results),
		"pending", len(cells), "forwarded", forwarded, "storeHits", job.hits)

	tick := time.NewTicker(c.opts.SweepEvery)
	defer tick.Stop()
	for {
		select {
		case <-job.done:
			c.mu.Lock()
			err := job.err
			c.mu.Unlock()
			if err != nil {
				return nil, err
			}
			return c.assemble(job), nil
		case <-ctx.Done():
			c.abandon(job)
			return nil, ctx.Err()
		case <-tick.C:
			c.mu.Lock()
			c.sweepLocked(time.Now())
			orphaned := len(c.workers) == 0
			c.mu.Unlock()
			if orphaned {
				c.runLocal(ctx, job)
			}
		}
	}
}

// decompose walks the request's workload × policy grid in the single-node
// executor's order, front-loading every cell with a store lookup. Cells
// the store already holds are resolved immediately; the rest come back as
// pending cellStates.
func (c *Coordinator) decompose(jobID string, req api.JobRequest, sink func(int, api.CellResult)) (*fleetJob, []*cellState, error) {
	plans, err := planJob(req)
	if err != nil {
		return nil, nil, err
	}
	job := &fleetJob{
		id:      jobID,
		results: make([]api.CellResult, len(plans)),
		done:    make(chan struct{}),
		sink:    sink,
	}
	var cells []*cellState
	for idx, pl := range plans {
		cell := &cellState{
			job:      job,
			spec:     pl.spec,
			policy:   pl.cfg.Policy.DisplayName(),
			workload: req.WorkloadName(pl.spec.WorkloadIndex),
			mixName:  pl.mix.Name,
			groupKey: batchGroupKey(pl.cfg, pl.mix),
		}
		var cached sim.Result
		hit, err := c.st.Get(pl.spec.Key, &cached)
		if err != nil {
			return nil, nil, err
		}
		if hit {
			job.results[idx] = api.NewCellResult(cell.policy, cell.workload, cell.mixName, &cached, true)
			job.hits++
			c.cResolved.Inc()
			c.cFromStore.Inc()
			if sink != nil {
				sink(idx, job.results[idx])
			}
		} else {
			job.remaining++
			cells = append(cells, cell)
		}
	}
	return job, cells, nil
}

// assemble merges a finished job. Cell order is the decompose order, never
// the completion order.
func (c *Coordinator) assemble(job *fleetJob) *api.JobResult {
	return &api.JobResult{
		Cells:       job.results,
		StoreHits:   job.hits,
		StoreMisses: job.misses,
	}
}

// abandon drops a cancelled job: its pending cells leave the queue and any
// still-leased cells are refused at completion.
func (c *Coordinator) abandon(job *fleetJob) {
	c.mu.Lock()
	defer c.mu.Unlock()
	job.abandoned = true
	c.removePendingLocked(job)
}

// removePendingLocked filters one job's cells out of the pending queue.
func (c *Coordinator) removePendingLocked(job *fleetJob) {
	kept := c.pending[:0]
	for _, cl := range c.pending {
		if cl.job != job {
			kept = append(kept, cl)
		}
	}
	c.pending = kept
	c.gPending.Set(float64(len(c.pending)))
}

// sweepLocked expires overdue leases and buries workers whose heartbeats
// stopped. It runs opportunistically — on every worker poll and on each
// in-flight job's ticker — so no dedicated goroutine is needed.
func (c *Coordinator) sweepLocked(now time.Time) {
	for id, w := range c.workers {
		if now.Sub(w.lastBeat) <= c.opts.WorkerTTL {
			continue
		}
		c.log.Warn("worker declared dead", "worker", id,
			"silence", now.Sub(w.lastBeat).Round(time.Millisecond), "leases", len(w.leases))
		for _, cl := range w.leases {
			c.cExpired.Inc()
			c.requeueLocked(cl, now, fmt.Sprintf("worker %s died", id))
		}
		delete(c.workers, id)
	}
	for _, cl := range c.leases {
		if now.After(cl.deadline) {
			c.cExpired.Inc()
			c.log.Warn("lease expired", "lease", cl.leaseID, "worker", cl.workerID,
				"job", cl.job.id, "cell", cl.spec.Index)
			c.requeueLocked(cl, now, "lease expired")
		}
	}
	// Re-own forwarded cells whose owner went silent past ForwardTTL: the
	// cell returns to the local pending queue (retry budget applies). A
	// late completion callback from the owner is refused once the cell
	// resolves here; if the callback wins instead, the re-owned pending
	// copy is dropped as settled. Either way the store dedups the work.
	for _, job := range c.jobs {
		for idx, cl := range job.forwarded {
			if !now.After(cl.forwardDeadline) {
				continue
			}
			delete(job.forwarded, idx)
			cl.forwardDeadline = time.Time{}
			c.cReowned.Inc()
			c.log.Warn("re-owning forwarded cell: owner silent", "job", job.id, "cell", idx)
			c.requeueLocked(cl, now, "forward owner silent")
		}
	}
	c.gWorkers.Set(float64(len(c.workers)))
	c.gLeases.Set(float64(len(c.leases)))
}

// requeueLocked returns a leased cell to the pending queue with backoff,
// or fails its job once the retry budget is spent.
func (c *Coordinator) requeueLocked(cl *cellState, now time.Time, why string) {
	cl.span.SetAttr("status", "requeued")
	cl.span.SetAttr("why", why)
	c.releaseLocked(cl)
	if cl.job.abandoned || cl.job.finished() {
		return
	}
	if cl.attempts > c.opts.MaxCellRetries { // first attempt + MaxCellRetries redispatches
		why = fmt.Sprintf("dist: cell %d (%s on %s) failed after %d attempts: %s",
			cl.spec.Index, cl.policy, cl.mixName, cl.attempts, why)
		if cl.job.remote {
			// An adopted cell fails alone: the origin gets a per-cell
			// error callback and decides (retry locally, fail its job) —
			// one bad cell must not sink the rest of the remote batch.
			c.failRemoteCellLocked(cl, why)
			return
		}
		c.failJobLocked(cl.job, fmt.Errorf("%s", why))
		return
	}
	c.cRetried.Inc()
	backoff := c.opts.RetryBackoff << uint(cl.attempts-1)
	if backoff > 5*time.Second {
		backoff = 5 * time.Second
	}
	cl.notBefore = now.Add(backoff)
	cl.lastErr = why
	c.pending = append(c.pending, cl)
	c.gPending.Set(float64(len(c.pending)))
}

// releaseLocked clears a cell's lease bookkeeping and ends the lease
// span (callers stamp a status attr first when the outcome matters).
func (c *Coordinator) releaseLocked(cl *cellState) {
	if cl.span != nil {
		cl.span.End()
		cl.span = nil
	}
	if cl.leaseID == "" {
		return
	}
	if w, ok := c.workers[cl.workerID]; ok {
		delete(w.leases, cl.leaseID)
	}
	delete(c.leases, cl.leaseID)
	cl.leaseID, cl.workerID, cl.deadline = "", "", time.Time{}
	c.gLeases.Set(float64(len(c.leases)))
}

// failRemoteCellLocked settles one adopted cell as failed and reports it
// to the origin via the batch's error callback.
func (c *Coordinator) failRemoteCellLocked(cl *cellState, why string) {
	job := cl.job
	if cl.resolved || job.finished() {
		return
	}
	cl.resolved = true
	job.remaining--
	if job.onCellFailed != nil {
		job.onCellFailed(cl.spec.Index, why)
	}
	if job.remaining == 0 {
		close(job.done)
	}
}

// failJobLocked settles a job as failed and drops its remaining cells.
func (c *Coordinator) failJobLocked(job *fleetJob, err error) {
	if job.abandoned || job.finished() {
		return
	}
	job.err = err
	job.abandoned = true
	c.removePendingLocked(job)
	close(job.done)
}

// resolveCell records one completed cell. Returns false when the result is
// no longer wanted (lease superseded, job cancelled or already failed).
func (c *Coordinator) resolveCell(cl *cellState, res *sim.Result, fromStore bool) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.resolveCellLocked(cl, res, fromStore)
}

func (c *Coordinator) resolveCellLocked(cl *cellState, res *sim.Result, fromStore bool) bool {
	c.releaseLocked(cl)
	if cl.resolved || cl.job.abandoned || cl.job.finished() {
		return false
	}
	cl.resolved = true
	job := cl.job
	job.results[cl.spec.Index] = api.NewCellResult(cl.policy, cl.workload, cl.mixName, res, fromStore)
	if job.sink != nil {
		job.sink(cl.spec.Index, job.results[cl.spec.Index])
	}
	if fromStore {
		job.hits++
	} else {
		job.misses++
	}
	c.cResolved.Inc()
	if fromStore {
		c.cFromStore.Inc()
	}
	job.remaining--
	if job.remaining == 0 {
		close(job.done)
	}
	return true
}

// popPendingLocked removes and returns the first dispatchable pending cell
// (FIFO, skipping cells still inside their retry backoff and dropping
// cells of settled jobs). onlyJob, when non-nil, restricts to that job;
// group, when non-empty, restricts to cells of that lockstep batch group.
func (c *Coordinator) popPendingLocked(now time.Time, onlyJob *fleetJob, group string) *cellState {
	for i := 0; i < len(c.pending); i++ {
		cl := c.pending[i]
		if cl.job.abandoned || cl.job.finished() {
			c.pending = append(c.pending[:i], c.pending[i+1:]...)
			i--
			continue
		}
		if onlyJob != nil && cl.job != onlyJob {
			continue
		}
		if group != "" && cl.groupKey != group {
			continue
		}
		if now.Before(cl.notBefore) {
			continue
		}
		c.pending = append(c.pending[:i], c.pending[i+1:]...)
		c.gPending.Set(float64(len(c.pending)))
		return cl
	}
	return nil
}

// runLocal is the orphaned-fleet fallback: with zero live workers and
// cells still pending, the coordinator executes this job's cells in
// process — the sweep degrades to single-node execution instead of
// stalling until a worker (re)appears.
func (c *Coordinator) runLocal(ctx context.Context, job *fleetJob) {
	for {
		if ctx.Err() != nil {
			return
		}
		now := time.Now()
		c.mu.Lock()
		c.sweepLocked(now)
		if len(c.workers) > 0 || job.abandoned || job.finished() {
			c.mu.Unlock()
			return
		}
		cl := c.popPendingLocked(now, job, "")
		if cl == nil {
			c.mu.Unlock()
			return
		}
		// Adopt the cell's whole batch group: the local fallback batches
		// exactly like a worker would.
		group := []*cellState{cl}
		for {
			next := c.popPendingLocked(now, job, cl.groupKey)
			if next == nil {
				break
			}
			group = append(group, next)
		}
		specs := make([]api.CellSpec, len(group))
		for i, g := range group {
			g.attempts++
			specs[i] = g.spec
		}
		c.mu.Unlock()

		c.log.Info("running cells locally (no live workers)", "job", job.id,
			"cell", cl.spec.Index, "group", len(group))
		// Locally-adopted cells have no lease span; their lanes hang
		// directly off the job span. The fallback runs groups one at a
		// time, so a group may spend one lane worker per adopted cell, like
		// a worker whose whole capacity the group occupies.
		results, err := ExecuteCellGroup(ctx, c.st, c.log, specs,
			[]trace.SpanContext{job.trace}, c.opts.Trace.Tracer(), len(specs))
		if err != nil {
			if ctx.Err() != nil {
				return // job context cancelled; RunJob's select settles it
			}
			c.mu.Lock()
			now := time.Now()
			for _, g := range group {
				c.requeueLocked(g, now, err.Error())
			}
			c.mu.Unlock()
			continue
		}
		for i, g := range group {
			c.cLocal.Inc()
			c.resolveCell(g, results[i].Result, results[i].FromStore)
		}
	}
}

// register admits a worker and hands it the fleet timing contract.
func (c *Coordinator) register(req api.RegisterRequest) api.RegisterResponse {
	if req.Capacity <= 0 {
		req.Capacity = 1
	}
	name := req.Name
	if name == "" {
		name = "worker"
	}
	c.mu.Lock()
	c.wseq++
	w := &workerState{
		id:       fmt.Sprintf("w%03d-%s", c.wseq, name),
		name:     name,
		capacity: req.Capacity,
		lastBeat: time.Now(),
		leases:   make(map[string]*cellState),
	}
	c.workers[w.id] = w
	c.gWorkers.Set(float64(len(c.workers)))
	c.mu.Unlock()
	c.log.Info("worker registered", "worker", w.id, "capacity", w.capacity)
	return api.RegisterResponse{
		APIVersion:  api.Version,
		WorkerID:    w.id,
		LeaseTTLMS:  c.opts.LeaseTTL.Milliseconds(),
		HeartbeatMS: (c.opts.WorkerTTL / 3).Milliseconds(),
		PollMS:      c.opts.PollInterval.Milliseconds(),
	}
}

// heartbeat refreshes a worker's liveness; false means the worker is
// unknown (declared dead or never registered) and must re-register.
func (c *Coordinator) heartbeat(workerID string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	w, ok := c.workers[workerID]
	if !ok {
		return false
	}
	w.lastBeat = time.Now()
	return true
}

// errOverCapacity distinguishes backpressure from an unknown worker in the
// HTTP layer (429 vs 410).
var errOverCapacity = fmt.Errorf("dist: worker at lease capacity")

var errUnknownWorker = fmt.Errorf("dist: unknown worker")

// lease grants up to maxN cells to a worker, bounded by the worker's
// registered capacity.
func (c *Coordinator) lease(workerID string, maxN int) ([]api.Lease, error) {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sweepLocked(now)
	w, ok := c.workers[workerID]
	if !ok {
		return nil, errUnknownWorker
	}
	w.lastBeat = now // a poll is as good as a heartbeat
	if len(w.leases) >= w.capacity {
		return nil, errOverCapacity
	}
	if maxN <= 0 {
		maxN = 1
	}
	n := min(maxN, w.capacity-len(w.leases))
	tr := c.opts.Trace.Tracer()
	var out []api.Lease
	group := ""        // pack cells of one batch group onto the same worker
	groupLanes := 0    // cells granted for the current group
	maxGroupLanes := 0 // largest pack in this grant, for the lane gauge
	for len(out) < n {
		cl := c.popPendingLocked(now, nil, group)
		if cl == nil && group != "" {
			// Group exhausted; fall back to FIFO and start the next group.
			cl = c.popPendingLocked(now, nil, "")
		}
		if cl == nil {
			break
		}
		if cl.groupKey == group {
			groupLanes++
		} else {
			groupLanes = 1
		}
		if groupLanes > maxGroupLanes {
			maxGroupLanes = groupLanes
		}
		group = cl.groupKey
		c.lseq++
		cl.leaseID = fmt.Sprintf("l%06d", c.lseq)
		cl.workerID = w.id
		cl.deadline = now.Add(c.opts.LeaseTTL)
		cl.grantedAt = now
		cl.attempts++
		sp := tr.Start(cl.job.trace, "lease")
		sp.SetAttr("worker", w.id)
		sp.SetAttr("cell", strconv.Itoa(cl.spec.Index))
		sp.SetAttr("policy", cl.policy)
		sp.SetAttr("mix", cl.mixName)
		cl.span = sp
		c.leases[cl.leaseID] = cl
		w.leases[cl.leaseID] = cl
		sc := sp.Context()
		out = append(out, api.Lease{
			ID:             cl.leaseID,
			JobID:          cl.job.id,
			Cell:           cl.spec,
			DeadlineUnixMS: cl.deadline.UnixMilli(),
			TraceID:        sc.TraceID,
			SpanID:         sc.SpanID,
		})
	}
	if len(out) > 0 {
		c.gBatchLanes.Set(float64(maxGroupLanes))
	}
	c.gLeases.Set(float64(len(c.leases)))
	return out, nil
}

// complete settles one lease with either a result or a worker-side error.
// Returns false when the completion is refused (expired/reassigned lease,
// settled job) — the worker discards its copy.
func (c *Coordinator) complete(req api.CompleteRequest) bool {
	c.mu.Lock()
	cl, ok := c.leases[req.LeaseID]
	if !ok || cl.workerID != req.WorkerID {
		c.mu.Unlock()
		return false
	}
	if w, ok := c.workers[req.WorkerID]; ok {
		w.lastBeat = time.Now()
		w.done++
	}
	if req.Error != "" || req.Result == nil {
		why := req.Error
		if why == "" {
			why = "worker returned no result"
		}
		c.log.Warn("cell failed on worker", "lease", req.LeaseID, "worker", req.WorkerID,
			"job", cl.job.id, "cell", cl.spec.Index, "err", why)
		c.requeueLocked(cl, time.Now(), why)
		c.mu.Unlock()
		return true
	}
	key := cl.spec.Key
	c.cCompleted.Inc()
	if !cl.grantedAt.IsZero() {
		c.hLeaseLatency.Observe(time.Since(cl.grantedAt).Milliseconds())
	}
	cl.span.SetAttr("status", "ok")
	cl.span.SetAttr("fromStore", strconv.FormatBool(req.FromStore))
	accepted := c.resolveCellLocked(cl, req.Result, req.FromStore)
	c.mu.Unlock()
	// Adopt the worker-side spans into the job's tree (journal + trace
	// endpoint). Shipped on the group's first completion; see the worker.
	for i := range req.Spans {
		c.opts.Trace.Record(&req.Spans[i])
	}
	if !accepted {
		return false
	}
	// Write the uploaded result back into the coordinator's store so the
	// dedup holds even when workers run private store directories. With a
	// shared directory this is an idempotent same-content rename.
	if !req.FromStore {
		if err := c.st.Put(key, req.Result); err != nil {
			c.log.Warn("fleet store put failed", "err", err)
		}
	}
	return true
}

// status snapshots the fleet for GET /v1/fleet.
func (c *Coordinator) status() api.FleetStatus {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sweepLocked(now)
	st := api.FleetStatus{
		APIVersion:     api.Version,
		PendingCells:   len(c.pending),
		ActiveLeases:   len(c.leases),
		LeasesExpired:  c.cExpired.Value(),
		CellsCompleted: c.cCompleted.Value(),
		CellsRetried:   c.cRetried.Value(),
		CellsLocal:     c.cLocal.Value(),
		CellsResolved:  c.cResolved.Value(),
		CellsFromStore: c.cFromStore.Value(),

		CellsForwarded:  c.cForwarded.Value(),
		CellsRemote:     c.cRemote.Value(),
		ForwardsReowned: c.cReowned.Value(),
	}
	if c.ring != nil {
		st.Coordinators = c.ring.Members()
	}
	if st.CellsResolved > 0 {
		st.StoreHitRatio = float64(st.CellsFromStore) / float64(st.CellsResolved)
	}
	ls := c.hLeaseLatency.Snapshot()
	st.LeaseLatency = api.LatencyStats{Count: ls.Count, Mean: ls.Mean, P50: ls.P50, P99: ls.P99}
	st.BatchLaneCount = int(c.gBatchLanes.Value())
	for _, w := range c.workers {
		st.Workers = append(st.Workers, api.WorkerStatus{
			ID:             w.id,
			Name:           w.name,
			Capacity:       w.capacity,
			ActiveLeases:   len(w.leases),
			CellsCompleted: w.done,
			LastBeatMS:     now.Sub(w.lastBeat).Milliseconds(),
		})
	}
	sort.Slice(st.Workers, func(i, j int) bool { return st.Workers[i].ID < st.Workers[j].ID })
	return st
}
