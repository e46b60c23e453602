package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"drishti/internal/obs"
	"drishti/internal/obs/trace"
	"drishti/internal/serve/api"
	"drishti/internal/store"
)

// WorkerOptions configure a fleet worker. Zero values take the documented
// defaults.
type WorkerOptions struct {
	// Coordinator is the base URL of the coordinator's HTTP API
	// (e.g. "http://coord:8411").
	Coordinator string

	// Name labels this worker in fleet state and logs (default "worker").
	Name string

	// Capacity is how many cells this worker simulates concurrently
	// (default 1). The coordinator enforces it on the lease side too.
	Capacity int

	// LaneWorkers overrides how many lanes of a batched lease group run
	// concurrently (sim.Config.LaneWorkers). 0, the default, gives each
	// group the capacity slots its leases already hold — a group of K
	// cells occupies K slots, so K lane workers keep node load at
	// Capacity without oversubscribing. Results are bit-identical at
	// every setting.
	LaneWorkers int

	// StoreDir roots the worker's content-addressed store. Every leased
	// cell is checked here before simulating; point the fleet at one
	// shared directory to dedup across all nodes.
	StoreDir string

	// Poll overrides the coordinator-suggested idle poll interval.
	Poll time.Duration

	// Heartbeat overrides the coordinator-suggested heartbeat interval.
	Heartbeat time.Duration

	// Logger receives one structured line per lease transition (default
	// discard).
	Logger *slog.Logger

	// Registry receives worker metrics (default the process registry).
	Registry *obs.Registry

	// Client is the HTTP client used for every coordinator call (default:
	// a client with a 60s request timeout).
	Client *http.Client
}

// Worker is the fleet's execution side: it registers with a coordinator,
// heartbeats, leases sweep cells, serves them from its store or simulates
// them, and uploads the outcomes. Run blocks until its context is
// cancelled; the binary wrapper is cmd/drishti-worker.
type Worker struct {
	opts   WorkerOptions
	st     *store.Store
	log    *slog.Logger
	client *http.Client

	mu        sync.Mutex
	id        string
	poll      time.Duration
	heartbeat time.Duration

	inflight atomic.Int32

	cExecuted, cFromStore, cRejected, cFailed *obs.Counter
	cBatchGroups                              *obs.Counter
}

// NewWorker opens the worker's store and prepares a client; no network
// traffic happens until Run.
func NewWorker(opts WorkerOptions) (*Worker, error) {
	if opts.Coordinator == "" {
		return nil, fmt.Errorf("dist: worker needs a coordinator URL")
	}
	if opts.Capacity <= 0 {
		opts.Capacity = 1
	}
	if opts.Name == "" {
		opts.Name = "worker"
	}
	if opts.Logger == nil {
		opts.Logger = obs.Discard()
	}
	if opts.Registry == nil {
		opts.Registry = obs.Default()
	}
	if opts.Client == nil {
		opts.Client = &http.Client{Timeout: 60 * time.Second}
	}
	st, err := store.Open(opts.StoreDir)
	if err != nil {
		return nil, err
	}
	st.Attach(opts.Registry, "worker_store")
	reg := opts.Registry
	return &Worker{
		opts:   opts,
		st:     st,
		log:    opts.Logger,
		client: opts.Client,

		cExecuted:    reg.Counter("worker_cells_executed"),
		cFromStore:   reg.Counter("worker_cells_from_store"),
		cRejected:    reg.Counter("worker_completes_rejected"),
		cFailed:      reg.Counter("worker_cells_failed"),
		cBatchGroups: reg.Counter("worker_batch_groups"),
	}, nil
}

// Run is the worker's life: register, then lease/execute/complete until ctx
// is cancelled, heartbeating in the background. In-flight cells are
// abandoned on cancellation — their simulations abort cooperatively and
// the coordinator reassigns the leases after expiry, which is exactly the
// path a crashed worker exercises.
func (w *Worker) Run(ctx context.Context) error {
	if err := w.register(ctx); err != nil {
		return err
	}
	hbCtx, stopHB := context.WithCancel(ctx)
	defer stopHB()
	var hbWG sync.WaitGroup
	hbWG.Add(1)
	go func() { defer hbWG.Done(); w.heartbeatLoop(hbCtx) }()
	defer hbWG.Wait()

	var wg sync.WaitGroup
	defer wg.Wait()
	for ctx.Err() == nil {
		free := int(int32(w.opts.Capacity) - w.inflight.Load())
		if free <= 0 {
			sleepCtx(ctx, w.pollInterval()/4)
			continue
		}
		leases, retryAfter, err := w.lease(ctx, free)
		switch {
		case ctx.Err() != nil:
		case err == errGone:
			w.log.Warn("coordinator dropped us; re-registering")
			if err := w.register(ctx); err != nil {
				return err
			}
		case err != nil:
			w.log.Warn("lease request failed", "err", err)
			sleepCtx(ctx, w.pollInterval())
		case retryAfter > 0:
			sleepCtx(ctx, retryAfter)
		case len(leases) == 0:
			sleepCtx(ctx, w.pollInterval())
		default:
			// Leases sharing a batch group run as one lockstep simulation;
			// the coordinator packs groups onto one grant, so most grants
			// are a single group.
			for _, g := range GroupCells(leases, func(l api.Lease) api.CellSpec { return l.Cell }) {
				w.inflight.Add(int32(len(g)))
				wg.Add(1)
				go func(g []api.Lease) {
					defer wg.Done()
					defer w.inflight.Add(int32(-len(g)))
					w.runLeaseGroup(ctx, g)
				}(g)
			}
		}
	}
	return nil
}

// runLeaseGroup executes leases that share one batch group — a single
// simulation for the whole group, a lone lease being a group of one — and
// uploads one completion per lease, so the coordinator's lease accounting
// never sees the batching.
func (w *Worker) runLeaseGroup(ctx context.Context, ls []api.Lease) {
	if len(ls) > 1 {
		w.cBatchGroups.Inc()
	}
	w.log.Info("leases accepted", "job", ls[0].JobID, "cell", ls[0].Cell.Index, "cells", len(ls))
	// Tracing is on exactly when the coordinator propagated trace context
	// on the leases. Spans buffer locally and ship on the group's first
	// completion, so the coordinator reassembles the full tree without any
	// extra round trips.
	var (
		buf     *trace.Buffer
		tr      *trace.Tracer
		parents []trace.SpanContext
		gspan   *trace.ActiveSpan
	)
	if ls[0].TraceID != "" {
		buf = &trace.Buffer{}
		tr = trace.NewTracer(w.workerID(), buf)
		if len(ls) > 1 {
			gspan = tr.Start(trace.SpanContext{TraceID: ls[0].TraceID, SpanID: ls[0].SpanID}, "lease-group")
			gspan.SetAttr("leases", strconv.Itoa(len(ls)))
		}
		parents = make([]trace.SpanContext, len(ls))
		for i, l := range ls {
			parents[i] = trace.SpanContext{TraceID: l.TraceID, SpanID: l.SpanID}
		}
	}
	specs := make([]api.CellSpec, len(ls))
	for i, l := range ls {
		specs[i] = l.Cell
	}
	// The group holds len(ls) of this worker's capacity slots, so it may
	// spend that many lane workers without oversubscribing the node.
	lw := w.opts.LaneWorkers
	if lw == 0 {
		lw = len(ls)
	}
	results, err := ExecuteCellGroup(ctx, w.st, w.log, specs, parents, tr, lw)
	if err != nil && ctx.Err() != nil {
		return // killed mid-simulation; the leases expire and are reassigned
	}
	if err != nil {
		gspan.SetAttr("error", err.Error())
	}
	gspan.End()
	spans := buf.Drain()
	for i, l := range ls {
		req := api.CompleteRequest{WorkerID: w.workerID(), LeaseID: l.ID}
		if err != nil {
			w.cFailed.Inc()
			req.Error = err.Error()
		} else {
			w.cExecuted.Inc()
			if results[i].FromStore {
				w.cFromStore.Inc()
			}
			req.FromStore, req.Result = results[i].FromStore, results[i].Result
		}
		if i == 0 {
			req.Spans = spans
		}
		w.completeWithRetry(ctx, req)
	}
}

// register joins the fleet, retrying transient failures with backoff until
// ctx is cancelled. A 400 (schema-version mismatch) is permanent.
func (w *Worker) register(ctx context.Context) error {
	req := api.RegisterRequest{APIVersion: api.Version, Name: w.opts.Name, Capacity: w.opts.Capacity}
	backoff := 200 * time.Millisecond
	for {
		var resp api.RegisterResponse
		status, err := w.post(ctx, "/v1/fleet/register", req, &resp)
		switch {
		case err == nil && status == http.StatusOK:
			w.mu.Lock()
			w.id = resp.WorkerID
			w.poll = time.Duration(resp.PollMS) * time.Millisecond
			w.heartbeat = time.Duration(resp.HeartbeatMS) * time.Millisecond
			w.mu.Unlock()
			w.log.Info("registered", "worker", resp.WorkerID,
				"leaseTTL", time.Duration(resp.LeaseTTLMS)*time.Millisecond)
			return nil
		case err == nil && status == http.StatusBadRequest:
			return fmt.Errorf("dist: coordinator refused registration (HTTP 400; wire-schema mismatch?)")
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		w.log.Warn("registration failed, retrying", "status", status, "err", err, "backoff", backoff)
		sleepCtx(ctx, backoff)
		backoff = min(backoff*2, 5*time.Second)
	}
}

// heartbeatLoop keeps the worker alive in the coordinator's eyes. A 410
// means the coordinator buried us; the main loop re-registers on its next
// lease attempt, so the heartbeat just keeps trying with the stale ID
// until the new one is in place.
func (w *Worker) heartbeatLoop(ctx context.Context) {
	for {
		w.mu.Lock()
		every := w.heartbeat
		w.mu.Unlock()
		if every <= 0 {
			every = 5 * time.Second
		}
		if w.opts.Heartbeat > 0 {
			every = w.opts.Heartbeat
		}
		if !sleepCtx(ctx, every) {
			return
		}
		status, err := w.post(ctx, "/v1/fleet/heartbeat", api.HeartbeatRequest{WorkerID: w.workerID()}, nil)
		if err != nil && ctx.Err() == nil {
			w.log.Warn("heartbeat failed", "err", err)
		} else if status == http.StatusGone {
			w.log.Warn("heartbeat rejected; worker unknown to coordinator")
		}
	}
}

// errGone maps HTTP 410 (worker unknown) for the main loop.
var errGone = fmt.Errorf("dist: worker unknown to coordinator")

// lease asks for up to maxN cells. A positive retryAfter means the
// coordinator pushed back (429) and the worker should wait that long.
func (w *Worker) lease(ctx context.Context, maxN int) (leases []api.Lease, retryAfter time.Duration, err error) {
	body, _ := json.Marshal(api.LeaseRequest{WorkerID: w.workerID(), Max: maxN})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		w.opts.Coordinator+"/v1/fleet/lease", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		var lr api.LeaseResponse
		if err := api.DecodeStrict(resp.Body, &lr); err != nil {
			return nil, 0, err
		}
		return lr.Leases, 0, nil
	case http.StatusGone:
		return nil, 0, errGone
	case http.StatusTooManyRequests:
		secs, _ := strconv.Atoi(resp.Header.Get("Retry-After"))
		return nil, time.Duration(max(secs, 1)) * time.Second, nil
	default:
		return nil, 0, fmt.Errorf("dist: lease: HTTP %d", resp.StatusCode)
	}
}

// completeWithRetry uploads a completion, retrying transient transport
// failures a few times. If every attempt fails the lease simply expires
// and the cell is recomputed elsewhere — correctness never depends on a
// completion arriving.
func (w *Worker) completeWithRetry(ctx context.Context, req api.CompleteRequest) {
	backoff := 100 * time.Millisecond
	for attempt := 0; attempt < 4; attempt++ {
		var cr api.CompleteResponse
		status, err := w.post(ctx, "/v1/fleet/complete", req, &cr)
		switch {
		case err == nil && status == http.StatusOK && cr.Accepted:
			w.log.Info("cell completed", "lease", req.LeaseID, "fromStore", req.FromStore)
			return
		case err == nil && status == http.StatusConflict:
			// Lease expired or superseded; our copy is redundant.
			w.cRejected.Inc()
			w.log.Warn("completion rejected (lease superseded)", "lease", req.LeaseID)
			return
		}
		if ctx.Err() != nil {
			return
		}
		w.log.Warn("completion upload failed, retrying", "lease", req.LeaseID,
			"status", status, "err", err)
		sleepCtx(ctx, backoff)
		backoff = min(backoff*2, 2*time.Second)
	}
	w.log.Warn("completion abandoned; lease will expire", "lease", req.LeaseID)
}

// post sends one JSON request and decodes a JSON response into out (when
// non-nil and the status is 200).
func (w *Worker) post(ctx context.Context, path string, in, out any) (int, error) {
	body, err := json.Marshal(in)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		w.opts.Coordinator+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := api.DecodeStrict(resp.Body, out); err != nil {
			return resp.StatusCode, err
		}
	}
	return resp.StatusCode, nil
}

func (w *Worker) workerID() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.id
}

func (w *Worker) pollInterval() time.Duration {
	if w.opts.Poll > 0 {
		return w.opts.Poll
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.poll > 0 {
		return w.poll
	}
	return 500 * time.Millisecond
}

// sleepCtx sleeps d or until ctx is done; false means the context ended.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		d = time.Millisecond
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
