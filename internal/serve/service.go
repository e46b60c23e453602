// Package serve is the drishti-served job service: an HTTP front end that
// queues simulation/sweep requests into a bounded FIFO, executes them on a
// worker pool with per-job cancellation, timeouts, and bounded
// retry-with-backoff, and amortizes identical work through the durable
// content-addressed result store (internal/store). Queued jobs survive
// restarts: graceful shutdown drains in-flight work, persists the queue,
// and New restores it.
package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"drishti/internal/dist"
	"drishti/internal/obs"
	"drishti/internal/obs/trace"
	"drishti/internal/serve/api"
	"drishti/internal/store"
)

// Distributor executes a job's sweep cells somewhere other than this
// process — the fleet coordinator (internal/dist) implements it. Returning
// an error wrapping api.ErrNoWorkers tells the service to fall back to
// local in-process execution, so a coordinator with no registered workers
// behaves exactly like a single node.
//
// sink, when non-nil, receives each cell result as it resolves (index is
// the cell's position in the job's deterministic order) so the service can
// stream partial results to watchers before the job settles. The final
// *api.JobResult remains authoritative; sink delivery is best-effort and
// may be invoked from any goroutine, but never after RunJob returns.
type Distributor interface {
	RunJob(ctx context.Context, jobID string, req api.JobRequest, sink func(index int, cell api.CellResult)) (*api.JobResult, error)
}

// Options configure a Service. Zero values take the documented defaults.
type Options struct {
	// StoreDir roots the durable result store and the persisted queue.
	StoreDir string

	// Store, when non-nil, overrides the store opened from StoreDir —
	// scaled-out deployments hand every coordinator the same sharded
	// (optionally cached) store built with store.OpenSharded. StoreDir
	// still roots the persisted queue file.
	Store *store.Store

	// TenantQuota bounds the number of non-terminal (queued or running)
	// jobs any one tenant may hold; submissions beyond it get HTTP 429
	// with a Retry-After derived from the current drain rate. 0 disables
	// quotas. The empty tenant counts as its own tenant.
	TenantQuota int

	// Workers is the scheduler pool size (default GOMAXPROCS). A negative
	// value starts no workers at all: jobs queue but never execute, which
	// tests use to exercise queue persistence deterministically.
	Workers int

	// QueueCap bounds the FIFO; submissions beyond it get HTTP 429
	// (default 64).
	QueueCap int

	// DefaultTimeout bounds each job's wall clock unless the request
	// overrides it (default 0 = unbounded).
	DefaultTimeout time.Duration

	// MaxRetries is the per-job retry budget for failures that are not
	// cancellations or timeouts (default 2; requests can override).
	MaxRetries int

	// RetryBackoff is the base of the exponential backoff between
	// attempts (default 100ms, doubling per attempt, capped at 5s).
	RetryBackoff time.Duration

	// Logger receives one structured line per job transition (default
	// discard).
	Logger *slog.Logger

	// Registry receives queue/store/job metrics (default the process
	// registry).
	Registry *obs.Registry

	// Distributor, when non-nil, is offered every job before local
	// execution (fleet mode). See the Distributor interface.
	Distributor Distributor

	// Trace, when non-nil, enables distributed tracing: every job gets a
	// trace ID at Submit, spans are recorded here, and the span tree is
	// served at GET /v1/jobs/{id}/trace. Share one recorder with the
	// fleet coordinator so its spans land in the same tree.
	Trace *trace.Recorder
}

func (o Options) withDefaults() Options {
	if o.Workers == 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	} else if o.Workers < 0 {
		o.Workers = -1
	}
	if o.QueueCap <= 0 {
		o.QueueCap = 64
	}
	if o.MaxRetries == 0 {
		o.MaxRetries = 2
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = 100 * time.Millisecond
	}
	if o.Logger == nil {
		o.Logger = obs.Discard()
	}
	if o.Registry == nil {
		o.Registry = obs.Default()
	}
	return o
}

// Service owns the queue, the worker pool, the job table, and the store.
type Service struct {
	opts  Options
	st    *store.Store
	q     *fifo
	log   *slog.Logger
	reg   *obs.Registry
	qfile string

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string // submission order, for listing
	seq      int
	draining bool

	// Drain-rate estimate for the derived Retry-After: total wall time and
	// count of finished jobs. Guarded by mu.
	durTotal time.Duration
	durCount int

	wg       sync.WaitGroup
	inflight atomic.Int64

	// metrics
	cSubmitted, cRestored, cRejected *obs.Counter
	cDone, cFailed, cCancelled       *obs.Counter
	cRetries                         *obs.Counter
	gQueueDepth, gInflight           *obs.Gauge
	hLatency                         *obs.Histogram
}

// New builds a Service, opens (or creates) its store, restores any queue
// persisted by a previous process, and starts the worker pool.
func New(opts Options) (*Service, error) {
	opts = opts.withDefaults()
	st := opts.Store
	if st == nil {
		var err error
		st, err = store.Open(opts.StoreDir)
		if err != nil {
			return nil, err
		}
		st.Attach(opts.Registry, "store")
	}
	s := &Service{
		opts:  opts,
		st:    st,
		q:     newFifo(),
		log:   opts.Logger,
		reg:   opts.Registry,
		qfile: filepath.Join(opts.StoreDir, "queue.json"),
		jobs:  make(map[string]*Job),

		cSubmitted:  opts.Registry.Counter("jobs_submitted"),
		cRestored:   opts.Registry.Counter("jobs_restored"),
		cRejected:   opts.Registry.Counter("jobs_rejected"),
		cDone:       opts.Registry.Counter("jobs_done"),
		cFailed:     opts.Registry.Counter("jobs_failed"),
		cCancelled:  opts.Registry.Counter("jobs_cancelled"),
		cRetries:    opts.Registry.Counter("jobs_retried"),
		gQueueDepth: opts.Registry.Gauge("queue_depth"),
		gInflight:   opts.Registry.Gauge("jobs_inflight"),
		hLatency:    opts.Registry.Histogram("job_latency_ms", 0, 250, 64),
	}
	if err := s.restoreQueue(); err != nil {
		return nil, err
	}
	for i := 0; i < opts.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// Store exposes the backing store (the HTTP stats endpoint reads it).
func (s *Service) Store() *store.Store { return s.st }

// restoreQueue re-enqueues jobs a previous process persisted on shutdown.
// Restored jobs keep their IDs, so clients polling across the restart
// resolve. The file is consumed: a later shutdown rewrites it from scratch.
func (s *Service) restoreQueue() error {
	pjobs, err := loadQueue(s.qfile)
	if err != nil {
		return err
	}
	for _, pj := range pjobs {
		j := &Job{ID: pj.ID, Request: pj.Request, Status: StatusQueued, EnqueuedAt: pj.EnqueuedAt,
			wake: make(chan struct{})}
		s.jobs[j.ID] = j
		s.order = append(s.order, j.ID)
		s.q.push(j)
		s.cRestored.Inc()
	}
	if len(pjobs) > 0 {
		s.log.Info("queue restored", "jobs", len(pjobs))
	}
	s.gQueueDepth.Set(float64(s.q.depth()))
	return saveQueue(s.qfile, nil) // consumed
}

// ErrQueueFull is returned by Submit when the FIFO is at capacity; the
// HTTP layer maps it to 429 + Retry-After.
var ErrQueueFull = errors.New("serve: queue full")

// ErrQuotaExceeded is returned by Submit when the request's tenant already
// holds TenantQuota non-terminal jobs; the HTTP layer maps it to 429 +
// Retry-After, same as a full queue.
var ErrQuotaExceeded = errors.New("serve: tenant quota exceeded")

// ErrDraining is returned during shutdown; the HTTP layer maps it to 503.
var ErrDraining = errors.New("serve: shutting down")

// Submit validates, assigns an ID, and enqueues a job, returning a
// snapshot taken before any worker can touch it (the live *Job is owned
// by the service and its mutex from here on).
func (s *Service) Submit(req JobRequest) (view, error) {
	req = req.WithDefaults()
	if err := req.Validate(); err != nil {
		return view{}, fmt.Errorf("invalid job: %w", err)
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return view{}, ErrDraining
	}
	if s.q.depth() >= s.opts.QueueCap {
		s.mu.Unlock()
		s.cRejected.Inc()
		return view{}, ErrQueueFull
	}
	if q := s.opts.TenantQuota; q > 0 {
		held := 0
		for _, id := range s.order {
			if t := s.jobs[id]; t.Request.Tenant == req.Tenant && !t.Status.Terminal() {
				held++
			}
		}
		if held >= q {
			s.mu.Unlock()
			s.cRejected.Inc()
			return view{}, fmt.Errorf("%w: tenant %q holds %d of %d jobs",
				ErrQuotaExceeded, req.Tenant, held, q)
		}
	}
	s.seq++
	id := fmt.Sprintf("j%06d-%s", s.seq, obs.RunID(
		strconv.Itoa(s.seq), strconv.FormatInt(time.Now().UnixNano(), 10)))
	j := &Job{ID: id, Request: req, Status: StatusQueued, EnqueuedAt: time.Now(),
		wake: make(chan struct{})}
	if s.opts.Trace != nil {
		j.TraceID = trace.NewTraceID()
	}
	s.jobs[id] = j
	s.order = append(s.order, id)
	snap := j.snapshot()
	s.q.push(j)
	s.mu.Unlock()
	s.cSubmitted.Inc()
	s.gQueueDepth.Set(float64(s.q.depth()))
	s.log.Info("job queued", "job", id, "cores", req.Cores,
		"policies", len(req.Policies), "workloads", len(req.Workloads))
	return snap, nil
}

// Get returns a snapshot view of the job, if it exists.
func (s *Service) Get(id string) (view, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return view{}, false
	}
	return j.snapshot(), true
}

// Result returns a done job's result.
func (s *Service) Result(id string) (*JobResult, Status, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, "", false
	}
	return j.Result, j.Status, true
}

// List returns snapshots of every job in submission order.
func (s *Service) List() []view {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]view, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id].snapshot())
	}
	return out
}

// Cancel stops a job: queued jobs flip straight to cancelled (the worker
// skips them), running jobs get their context cancelled and settle to
// cancelled once the simulator unwinds. Returns the post-cancel status.
func (s *Service) Cancel(id string) (Status, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return "", false
	}
	switch j.Status {
	case StatusQueued:
		j.Status = StatusCancelled
		j.FinishedAt = time.Now()
		s.cCancelled.Inc()
		s.log.Info("job cancelled while queued", "job", id)
	case StatusRunning:
		if j.cancel != nil {
			j.cancel()
		}
		s.log.Info("job cancel requested", "job", id)
	}
	return j.Status, true
}

// recordCell stores one resolved cell for stream watchers and wakes them.
// First result per index wins: a retry attempt re-resolving a cell is
// dropped so the stream never repeats an index (the buffered JobResult of
// the final successful attempt remains authoritative).
func (s *Service) recordCell(j *Job, index int, cell api.CellResult) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := j.cells[index]; dup {
		return
	}
	if j.cells == nil {
		j.cells = make(map[int]CellResult)
	}
	j.cells[index] = cell
	j.cellSeq = append(j.cellSeq, index)
	s.notifyLocked(j)
}

// notifyLocked broadcasts a stream event to every watcher blocked on the
// job's wake channel. Caller holds the service mutex.
func (s *Service) notifyLocked(j *Job) {
	if j.wake != nil {
		close(j.wake)
		j.wake = make(chan struct{})
	}
}

// retryAfterSec derives the Retry-After hint for 429 responses from the
// queue's current drain rate (see retryAfterFor).
func (s *Service) retryAfterSec() int { return s.retryAfterFor(s.q.depth()) }

// retryAfterFor is the Retry-After arithmetic for a queue holding depth
// jobs: depth+1 jobs ahead, each taking the observed mean wall time,
// spread over the worker pool. Clamped to [1s, 60s]; with no finished
// jobs yet (no rate estimate) it falls back to 5s.
func (s *Service) retryAfterFor(depth int) int {
	s.mu.Lock()
	var mean time.Duration
	if s.durCount > 0 {
		mean = s.durTotal / time.Duration(s.durCount)
	}
	s.mu.Unlock()
	if mean <= 0 || s.opts.Workers <= 0 {
		return 5
	}
	wait := time.Duration(depth+1) * mean / time.Duration(s.opts.Workers)
	sec := int((wait + time.Second - 1) / time.Second)
	if sec < 1 {
		sec = 1
	}
	if sec > 60 {
		sec = 60
	}
	return sec
}

// worker pulls jobs until the queue closes.
func (s *Service) worker() {
	defer s.wg.Done()
	for {
		j, ok := s.q.pop()
		if !ok {
			return
		}
		s.gQueueDepth.Set(float64(s.q.depth()))
		s.execute(j)
	}
}

// execute runs one job with timeout, bounded retry, and cancellation.
func (s *Service) execute(j *Job) {
	s.mu.Lock()
	if j.Status != StatusQueued { // cancelled while waiting
		s.mu.Unlock()
		return
	}
	j.Status = StatusRunning
	j.StartedAt = time.Now()
	ctx, cancel := context.WithCancel(context.Background())
	timeout := s.opts.DefaultTimeout
	if j.Request.TimeoutSec > 0 {
		timeout = time.Duration(j.Request.TimeoutSec) * time.Second
	}
	if timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, timeout)
	}
	j.cancel = cancel
	s.mu.Unlock()
	defer cancel()
	// Root span of the job's trace; the span context rides the context so
	// the Distributor (fleet coordinator) parents its spans under it.
	root := s.opts.Trace.Tracer().Start(trace.SpanContext{TraceID: j.TraceID}, "job")
	if root != nil {
		root.SetAttr("job", j.ID)
		ctx = trace.NewContext(ctx, root.Context())
	}
	s.gInflight.Set(float64(s.inflight.Add(1)))
	defer func() { s.gInflight.Set(float64(s.inflight.Add(-1))) }()

	retries := s.opts.MaxRetries
	switch {
	case j.Request.MaxRetries > 0:
		retries = j.Request.MaxRetries
	case j.Request.MaxRetries < 0:
		retries = 0
	}

	var (
		res      *JobResult
		err      error
		attempts int
	)
	for attempt := 0; ; attempt++ {
		attempts = attempt + 1
		res, err = s.runJob(ctx, j)
		if err == nil || ctx.Err() != nil || attempt >= retries {
			break
		}
		// Transient failure: back off exponentially (capped) and retry.
		s.cRetries.Inc()
		backoff := s.opts.RetryBackoff << uint(attempt)
		if backoff > 5*time.Second {
			backoff = 5 * time.Second
		}
		s.log.Warn("job attempt failed, retrying", "job", j.ID,
			"attempt", attempts, "backoff", backoff, "err", err)
		select {
		case <-ctx.Done():
		case <-time.After(backoff):
		}
	}

	s.mu.Lock()
	j.Attempts = attempts
	j.FinishedAt = time.Now()
	j.cancel = nil
	elapsed := j.FinishedAt.Sub(j.StartedAt)
	switch {
	case err == nil:
		j.Status = StatusDone
		res.ElapsedMS = elapsed.Milliseconds()
		j.Result = res
		s.cDone.Inc()
	case errors.Is(err, context.Canceled):
		j.Status = StatusCancelled
		j.Error = err.Error()
		s.cCancelled.Inc()
	case errors.Is(err, context.DeadlineExceeded):
		j.Status = StatusFailed
		j.Error = fmt.Sprintf("timed out after %v: %v", elapsed.Round(time.Millisecond), err)
		s.cFailed.Inc()
	default:
		j.Status = StatusFailed
		j.Error = err.Error()
		s.cFailed.Inc()
	}
	status := j.Status
	s.durTotal += elapsed
	s.durCount++
	s.notifyLocked(j) // wake stream watchers: the job is terminal
	s.mu.Unlock()
	root.SetAttr("status", string(status))
	root.End()
	s.hLatency.Observe(elapsed.Milliseconds())
	s.log.Info("job finished", "job", j.ID, "status", string(status),
		"attempts", attempts, "elapsed", elapsed.Round(time.Millisecond), "err", err)
}

// runJob executes the request's workload × policy grid. In fleet mode the
// configured Distributor gets the job first; it declines with
// api.ErrNoWorkers when the fleet is empty and the local path below runs
// exactly as on a single node. Locally the grid's cells are partitioned
// into batch groups (cells that differ only in policy), and each group is
// resolved by dist.ExecuteCellGroup: identical cells computed by any
// earlier process are served from the store without touching the
// simulator, and the misses run as one lockstep batch on one lane worker —
// the worker pool already provides cross-job parallelism. Each cell is
// recorded at its index in the grid's deterministic order.
func (s *Service) runJob(ctx context.Context, j *Job) (*JobResult, error) {
	req := j.Request
	sink := func(index int, cell api.CellResult) { s.recordCell(j, index, cell) }
	if s.opts.Distributor != nil {
		res, err := s.opts.Distributor.RunJob(ctx, j.ID, req, sink)
		switch {
		case err == nil:
			return res, nil
		case errors.Is(err, api.ErrNoWorkers):
			s.log.Info("no fleet workers registered; executing locally", "job", j.ID)
		default:
			return nil, err
		}
	}
	specs, err := dist.CellSpecs(req)
	if err != nil {
		return nil, err
	}
	out := &JobResult{Cells: make([]CellResult, len(specs))}
	parents := []trace.SpanContext{trace.FromContext(ctx)} // every cell hangs off the job span
	for _, group := range dist.GroupCells(specs, func(c api.CellSpec) api.CellSpec { return c }) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		cells, err := dist.ExecuteCellGroup(ctx, s.st, s.log, group, parents, s.opts.Trace.Tracer(), 1)
		if err != nil {
			return nil, fmt.Errorf("workload %s: %w", req.WorkloadName(group[0].WorkloadIndex), err)
		}
		for i, cell := range cells {
			if cell.FromStore {
				out.StoreHits++
			} else {
				out.StoreMisses++
			}
			idx := group[i].Index
			out.Cells[idx] = cell
			sink(idx, cell)
			s.log.Info("cell done", "job", j.ID, "cell", idx, "policy", cell.Policy,
				"mix", cell.Mix, "fromStore", cell.FromStore, "mpki", cell.MPKI)
		}
	}
	return out, nil
}

// Trace returns the collected span tree of one job's distributed trace.
// ok is false when the job is unknown or tracing is disabled.
func (s *Service) Trace(id string) (api.TraceView, bool) {
	s.mu.Lock()
	j, exists := s.jobs[id]
	traceID := ""
	if exists {
		traceID = j.TraceID
	}
	s.mu.Unlock()
	if traceID == "" {
		return api.TraceView{}, false
	}
	spans := s.opts.Trace.Spans(traceID)
	if spans == nil {
		spans = []trace.Span{}
	}
	return api.TraceView{TraceID: traceID, Spans: spans}, true
}

// Shutdown gracefully stops the service: new submissions are rejected,
// workers stop picking up queued jobs and finish their in-flight ones, and
// whatever is still queued is persisted for the next process. ctx bounds
// the drain; on expiry the queue is still persisted but in-flight jobs are
// abandoned (their contexts are NOT cancelled — a hard stop would lose
// work that is about to finish).
func (s *Service) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	s.mu.Unlock()
	s.q.close()

	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	var drainErr error
	select {
	case <-done:
	case <-ctx.Done():
		drainErr = fmt.Errorf("serve: drain timeout: %w", ctx.Err())
	}

	left := s.q.drain()
	if err := saveQueue(s.qfile, left); err != nil {
		return errors.Join(drainErr, fmt.Errorf("serve: persist queue: %w", err))
	}
	s.log.Info("shutdown complete", "persistedJobs", len(left))
	return drainErr
}
