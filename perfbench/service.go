package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"drishti/internal/dist"
	"drishti/internal/obs"
	"drishti/internal/obs/trace"
	"drishti/internal/serve"
	"drishti/internal/serve/api"
	"drishti/internal/sim"
	"drishti/internal/store"
	"drishti/internal/workload"
)

// fleet-mixed: closed-loop clients submit sweep jobs over HTTP to an
// in-process fleet and follow each job's NDJSON result stream to its done
// event.
const (
	jobClients = 2
	jobCores   = 8
	jobScale   = 8
	jobInstr   = 60_000
	jobWarmup  = 15_000
	// primedChains is how many chains per client sub-sequence setup primes;
	// a client that outruns them starts its next chain with a job of six
	// fresh cells (scheduled as such, so still checked exactly).
	primedChains = 3
)

var jobPolicies = []api.PolicyRequest{{Name: "lru"}, {Name: "mockingjay"}, {Name: "mockingjay", Drishti: true}}

var jobSize = fmt.Sprintf("cell size: cores x (warmup+instructions) = %d x (%d+%d); 6 cells per job (%d policies x 2 workloads, 3 store hits + 3 fresh), scale 1/%d, %d closed-loop clients",
	jobCores, jobWarmup, jobInstr, len(jobPolicies), jobScale, jobClients)

// Job schedule. Each client runs two interleaved sub-sequences (even and
// odd jobs). Within a sub-sequence, chain k uses one seed and walks the
// workload models: its job p carries [models[p], models[p+1]], so
// models[p] repeats the previous job of the sub-sequence (two jobs back for
// the client, long after that job's cells reached the store) and models[p+1]
// is fresh. A chain's first repeat comes from a primer job run in setup.

// scheduled is one job and the store hits it must see.
type scheduled struct {
	req  api.JobRequest
	hits int
}

func (b *serviceBench) chainSeed(c, sub, k int) uint64 {
	return subSeed(b.o.seed, fmt.Sprintf("job/c%d/s%d", c, sub), k)
}

func (b *serviceBench) request(seed uint64, models ...string) api.JobRequest {
	return api.JobRequest{
		Cores:        jobCores,
		Scale:        jobScale,
		Instructions: jobInstr,
		Warmup:       jobWarmup,
		Seed:         seed,
		Policies:     jobPolicies,
		Workloads:    models,
	}
}

// schedule is client c's job n; n = 0 is the untimed warm-up job.
func (b *serviceBench) schedule(c, n int) scheduled {
	chainLen := len(b.models) - 1
	sub, q := n%2, n/2
	k, p := q/chainLen, q%chainLen
	s := scheduled{req: b.request(b.chainSeed(c, sub, k), b.models[p], b.models[p+1]), hits: len(jobPolicies)}
	if p == 0 && k >= primedChains {
		s.hits = 0
	}
	return s
}

// primer seeds the first repeat of chain k of client c's sub-sequence sub.
func (b *serviceBench) primer(c, sub, k int) scheduled {
	return scheduled{req: b.request(b.chainSeed(c, sub, k), b.models[0])}
}

// node is one fleet coordinator: a job service behind its HTTP handler.
type node struct {
	url    string
	srv    *http.Server
	served chan struct{} // closed when Serve returns
	svc    *serve.Service
	st     *store.Store
	tb     *timedBackend // traced runs
}

type serviceBench struct {
	o         *options
	root      string
	models    []string
	nodes     []*node
	transport *http.Transport
	client    *http.Client
	stopWkrs  context.CancelFunc
	workers   sync.WaitGroup
	rec       *trace.Recorder // traced runs: spans of every node

	mu     sync.Mutex
	fresh  map[string][]byte // seed|workload|policy → the fresh cell's result
	timed  [][]delivered     // per client, in order
	totals counts            // work counters of fresh timed cells
	led    serviceLedger     // traced runs
	fleet0 []api.FleetStatus // fleet status at the start of the window
}

// delivered is one timed job as the client saw it.
type delivered struct {
	req     api.JobRequest
	results [][]byte // per cell index, JSON-encoded sim.Result
}

// serviceLedger collects the traced run's client-side and trace figures.
type serviceLedger struct {
	queueWait, run          []time.Duration
	decodeNS, lines, stream int64
	jobs                    int
	gen, replay, barrier    time.Duration
	laneRun, laneCapacity   time.Duration
	groupWall               time.Duration
	groups, grows           int
}

func newFleet(ctx context.Context, o *options, round int) (instance, error) {
	tr := &http.Transport{MaxIdleConnsPerHost: 2 * jobClients}
	b := &serviceBench{
		o:         o,
		root:      filepath.Join(o.tmp, fmt.Sprintf("round%d", round)),
		models:    workload.Names(workload.AllSPECGAP()),
		transport: tr,
		client:    &http.Client{Transport: tr, Timeout: time.Minute},
		fresh:     make(map[string][]byte),
		timed:     make([][]delivered, jobClients),
	}
	if o.traced {
		b.rec = trace.NewRecorder("perfbench", nil)
	}
	err := b.startFleet(ctx)
	if err == nil {
		err = b.warm(ctx)
	}
	if err == nil {
		b.fleet0, err = b.fleetStatus(ctx)
	}
	if err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

// startFleet builds drishti-loadgen's in-process fleet: two peered
// coordinators over one two-shard store, one simulation worker each.
func (b *serviceBench) startFleet(ctx context.Context) error {
	const coords, capacity = 2, 2
	lns := make([]net.Listener, coords)
	urls := make([]string, coords)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return err
		}
		lns[i], urls[i] = ln, "http://"+ln.Addr().String()
	}
	wctx, stop := context.WithCancel(context.Background())
	b.stopWkrs = stop
	for i := 0; i < coords; i++ {
		nd := &node{url: urls[i]}
		b.nodes = append(b.nodes, nd)
		err := func() error {
			var err error
			if nd.st, nd.tb, err = b.openStore(); err != nil {
				return err
			}
			var peers []string
			for j, u := range urls {
				if j != i {
					peers = append(peers, u)
				}
			}
			coord, err := dist.NewCoordinator(dist.CoordinatorOptions{
				Store:        nd.st,
				Self:         urls[i],
				Peers:        peers,
				LeaseTTL:     10 * time.Second,
				WorkerTTL:    10 * time.Second,
				PollInterval: 10 * time.Millisecond,
				Registry:     obs.NewRegistry(),
				Trace:        b.rec,
			})
			if err != nil {
				return err
			}
			nd.svc, err = serve.New(serve.Options{
				Store:       nd.st,
				StoreDir:    filepath.Join(b.root, fmt.Sprintf("node%d", i)),
				Workers:     capacity,
				QueueCap:    4096,
				Registry:    obs.NewRegistry(),
				Distributor: coord,
				Trace:       b.rec,
			})
			if err != nil {
				return err
			}
			nd.serve(lns[i], coord.Handler(nd.svc.Handler()))
			w, err := dist.NewWorker(dist.WorkerOptions{
				Coordinator: urls[i],
				Name:        fmt.Sprintf("bench-w%d", i),
				Capacity:    capacity,
				StoreDir:    b.shardDirs()[0],
				Poll:        10 * time.Millisecond,
				Heartbeat:   250 * time.Millisecond,
				Registry:    obs.NewRegistry(),
			})
			if err != nil {
				return err
			}
			b.workers.Add(1)
			go func() {
				defer b.workers.Done()
				w.Run(wctx) // returns once wctx is cancelled
			}()
			return nil
		}()
		if err != nil {
			for _, l := range lns[i:] {
				l.Close()
			}
			return err
		}
	}
	// Setup includes registration: wait until every coordinator sees its worker.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := b.fleetStatus(ctx)
		ready := err == nil
		for _, s := range st {
			ready = ready && len(s.Workers) == 1
		}
		if ready {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("fleet workers did not register within 10s (last error: %v)", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (nd *node) serve(ln net.Listener, h http.Handler) {
	nd.srv = &http.Server{Handler: h}
	nd.served = make(chan struct{})
	go func() {
		defer close(nd.served)
		nd.srv.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
}

func (b *serviceBench) shardDirs() []string {
	return []string{filepath.Join(b.root, "shard0"), filepath.Join(b.root, "shard1")}
}

// openStore opens the two-shard store. Traced runs compose it by hand —
// the same routing store.OpenSharded builds — with a timing backend on top,
// handed to store.OpenBackend.
func (b *serviceBench) openStore() (*store.Store, *timedBackend, error) {
	dirs := b.shardDirs()
	if !b.o.traced {
		st, err := store.OpenSharded(dirs, 0)
		return st, nil, err
	}
	names := make([]string, len(dirs))
	backends := make([]store.Backend, len(dirs))
	for i, d := range dirs {
		be, err := store.NewDir(d)
		if err != nil {
			return nil, nil, err
		}
		names[i], backends[i] = filepath.Clean(d), be
	}
	sh, err := store.NewSharded(names, backends)
	if err != nil {
		return nil, nil, err
	}
	tb := &timedBackend{Backend: sh}
	return store.OpenBackend(tb), tb, nil
}

// warm runs the setup jobs: every client's primers, then one warm-up job
// per client, the clients concurrently as in the timed window.
func (b *serviceBench) warm(ctx context.Context) error {
	errs := make([]error, jobClients)
	var wg sync.WaitGroup
	for c := 0; c < jobClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			n := 0
			for k := 0; k < primedChains; k++ {
				for sub := 0; sub < 2; sub++ {
					if _, err := b.runJob(ctx, b.target(c, n), b.primer(c, sub, k), nil); err != nil {
						errs[c] = fmt.Errorf("primer job: %w", err)
						return
					}
					n++
				}
			}
			if _, err := b.runJob(ctx, b.target(c, n), b.schedule(c, 0), nil); err != nil {
				errs[c] = fmt.Errorf("warm-up job: %w", err)
			}
		}(c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// target is the node client c sends its n-th job to: clients alternate
// between the coordinators of a fleet.
func (b *serviceBench) target(c, n int) string {
	return b.nodes[(c+n)%len(b.nodes)].url
}

func (b *serviceBench) unit(ctx context.Context, c, n int) (unitResult, error) {
	d := &delivered{}
	cells, err := b.runJob(ctx, b.target(c, n+1), b.schedule(c, n+1), d)
	if err != nil {
		return unitResult{}, err
	}
	b.mu.Lock()
	b.timed[c] = append(b.timed[c], *d)
	b.mu.Unlock()
	return unitResult{cells: cells}, nil
}

// runJob submits one job, follows its result stream to the done event and
// checks what arrived: every cell exactly once, the scheduled store hits,
// repeats byte-identical to their first computation. A non-nil d marks a
// timed job and receives what was delivered.
func (b *serviceBench) runJob(ctx context.Context, target string, job scheduled, d *delivered) (int, error) {
	body, err := json.Marshal(job.req)
	if err != nil {
		return 0, err
	}
	id, err := b.submit(ctx, target, body)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, target+"/v1/jobs/"+id+"/results", nil)
	if err != nil {
		return 0, err
	}
	resp, err := b.client.Do(req)
	if err != nil {
		return 0, fmt.Errorf("job %s stream: %w", id, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("job %s stream: HTTP %d", id, resp.StatusCode)
	}

	np := len(job.req.Policies)
	want := np * len(job.req.Workloads)
	cells := make([]*api.CellResult, want)
	var (
		done             *api.ResultEvent
		decodeNS, nbytes int64
		lines            int
	)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		line := sc.Bytes()
		var ev api.ResultEvent
		t0 := time.Now()
		err := api.DecodeStrict(bytes.NewReader(line), &ev)
		decodeNS += int64(time.Since(t0))
		nbytes += int64(len(line)) + 1
		lines++
		if err != nil {
			return 0, fmt.Errorf("job %s stream line: %w", id, err)
		}
		switch ev.Event {
		case api.EventCell:
			if ev.Cell == nil || ev.Index < 0 || ev.Index >= want {
				return 0, fmt.Errorf("job %s: cell event with index %d outside [0,%d)", id, ev.Index, want)
			}
			if cells[ev.Index] != nil {
				return 0, fmt.Errorf("job %s: cell %d streamed twice", id, ev.Index)
			}
			cells[ev.Index] = ev.Cell
		case api.EventDone:
			done = &ev
		}
		if done != nil {
			break
		}
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("job %s stream: %w", id, err)
	}
	if done == nil {
		return 0, fmt.Errorf("job %s: stream ended without a done event", id)
	}
	if done.Status != api.StatusDone {
		return 0, fmt.Errorf("job %s: status %s: %s", id, done.Status, done.Error)
	}
	if done.StoreHits != job.hits {
		return 0, fmt.Errorf("job %s: %d store hits, %d scheduled", id, done.StoreHits, job.hits)
	}

	results := make([][]byte, want)
	var fresh []*sim.Result
	b.mu.Lock()
	for i, cell := range cells {
		if cell == nil || cell.Result == nil {
			b.mu.Unlock()
			return 0, fmt.Errorf("job %s: cell %d lost", id, i)
		}
		wi, pi := i/np, i%np
		raw, err := json.Marshal(cell.Result)
		if err != nil {
			b.mu.Unlock()
			return 0, err
		}
		results[i] = raw
		key := fmt.Sprintf("%d|%s|%d", job.req.Seed, job.req.Workloads[wi], pi)
		repeat := wi == 0 && job.hits > 0
		if cell.FromStore != repeat || cell.Workload != job.req.Workloads[wi] {
			b.mu.Unlock()
			return 0, fmt.Errorf("job %s cell %d: workload %q fromStore=%v, scheduled %q fromStore=%v",
				id, i, cell.Workload, cell.FromStore, job.req.Workloads[wi], repeat)
		}
		first, seen := b.fresh[key]
		switch {
		case repeat && !seen:
			err = fmt.Errorf("job %s cell %d: repeat of a cell never delivered", id, i)
		case repeat && !bytes.Equal(first, raw):
			err = fmt.Errorf("job %s cell %d: repeat differs from its first computation", id, i)
		case !repeat && seen:
			err = fmt.Errorf("job %s cell %d: fresh cell already delivered once", id, i)
		case !repeat:
			b.fresh[key] = raw
			fresh = append(fresh, cell.Result)
		}
		if err != nil {
			b.mu.Unlock()
			return 0, err
		}
	}
	if d != nil {
		for _, r := range fresh {
			b.totals.add(r)
		}
		d.req, d.results = job.req, results
		if b.o.traced {
			b.led.decodeNS += decodeNS
			b.led.lines += int64(lines)
			b.led.stream += nbytes
			b.led.jobs++
		}
	}
	b.mu.Unlock()
	if d != nil && b.o.traced {
		if err := b.readHooks(ctx, target, id); err != nil {
			return 0, err
		}
	}
	return want, nil
}

func (b *serviceBench) submit(ctx context.Context, target string, body []byte) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, target+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := b.client.Do(req)
	if err != nil {
		return "", fmt.Errorf("submit: %w", err)
	}
	defer resp.Body.Close()
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		return "", fmt.Errorf("submit: %w", err)
	}
	if resp.StatusCode != http.StatusAccepted || sub.ID == "" {
		return "", fmt.Errorf("submit: HTTP %d", resp.StatusCode)
	}
	return sub.ID, nil
}

// readHooks reads what the service already exposes about a finished job:
// its view (queue wait and run time) and its span tree (the fleet workers'
// batch phase timings).
func (b *serviceBench) readHooks(ctx context.Context, target, id string) error {
	var v api.JobView
	if err := b.getJSON(ctx, target+"/v1/jobs/"+id, &v); err != nil {
		return err
	}
	if v.StartedAt == nil || v.FinishedAt == nil {
		return fmt.Errorf("job %s: view without start/finish times", id)
	}
	var tv api.TraceView
	if err := b.getJSON(ctx, target+"/v1/jobs/"+id+"/trace", &tv); err != nil {
		return err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	l := &b.led
	l.queueWait = append(l.queueWait, v.StartedAt.Sub(v.EnqueuedAt))
	l.run = append(l.run, v.FinishedAt.Sub(*v.StartedAt))
	for _, sp := range tv.Spans {
		switch sp.Name {
		case "batch-group":
			wall := time.Duration(sp.DurationNS)
			l.groups++
			l.groupWall += wall
			l.gen += spanDur(sp, "phase.workload-gen")
			l.replay += spanDur(sp, "phase.private-replay")
			l.barrier += spanDur(sp, "phase.barrier")
			var grows, workers int
			fmt.Sscan(sp.Attrs["phase.window-grows"], &grows)
			fmt.Sscan(sp.Attrs["lane-workers"], &workers)
			l.grows += grows
			l.laneCapacity += time.Duration(max(workers, 1)) * wall
		case "lane":
			l.laneRun += spanDur(sp, "phase.lane-run")
		}
	}
	return nil
}

func spanDur(sp trace.Span, attr string) time.Duration {
	d, _ := time.ParseDuration(sp.Attrs[attr]) // absent attribute: zero
	return d
}

func (b *serviceBench) getJSON(ctx context.Context, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := b.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func (b *serviceBench) fleetStatus(ctx context.Context) ([]api.FleetStatus, error) {
	out := make([]api.FleetStatus, len(b.nodes))
	for i, nd := range b.nodes {
		if err := b.getJSON(ctx, nd.url+"/v1/fleet", &out[i]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// check recomputes two fresh cells of the window — the first timed job's
// and the last one's — with a direct sim.RunMixContext and compares them
// byte for byte with what the stream delivered.
func (b *serviceBench) check(ctx context.Context) (int, []error) {
	type pick struct {
		d     delivered
		index int
	}
	var picks []pick
	if len(b.timed[0]) > 0 {
		picks = append(picks, pick{b.timed[0][0], len(jobPolicies)})
	}
	if last := b.timed[jobClients-1]; len(last) > 0 {
		picks = append(picks, pick{last[len(last)-1], 2*len(jobPolicies) - 1})
	}
	if len(picks) == 0 {
		return 1, []error{fmt.Errorf("no timed job to check")}
	}
	var errs []error
	for _, p := range picks {
		np := len(p.d.req.Policies)
		cfg, mix, err := p.d.req.Cell(p.index/np, p.index%np)
		var res *sim.Result
		if err == nil {
			res, err = sim.RunMixContext(ctx, cfg, mix)
		}
		var raw []byte
		if err == nil {
			raw, err = json.Marshal(res)
		}
		if err == nil && !bytes.Equal(raw, p.d.results[p.index]) {
			err = fmt.Errorf("streamed result differs from a direct recompute")
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("seed %d cell %d: %w", p.d.req.Seed, p.index, err))
		}
	}
	return len(picks), errs
}

func (b *serviceBench) digests() (string, string) {
	dg := newDigest()
	for _, jobs := range b.timed {
		for _, d := range jobs {
			dg.add(d.results...)
		}
	}
	return dg.sums()
}

func (b *serviceBench) layers(l *ledger) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	b.mu.Lock()
	defer b.mu.Unlock()
	b.totals.report(l)
	led := &b.led
	l.set("serve.queue_wait_ms", ms(median(led.queueWait)), "ms")
	l.set("serve.run_ms", ms(median(led.run)), "ms")
	if led.lines > 0 {
		l.set("api.decode_us", float64(led.decodeNS)/float64(led.lines)/1e3, "us")
	}
	if led.jobs > 0 {
		l.set("api.stream_bytes", float64(led.stream)/float64(led.jobs), "B/job")
	}
	var gets, puts, getNS, putNS int64
	var st store.Stats
	for _, nd := range b.nodes {
		if nd.tb != nil {
			gets += nd.tb.gets.Load()
			puts += nd.tb.puts.Load()
			getNS += nd.tb.getNS.Load()
			putNS += nd.tb.putNS.Load()
		}
		s := nd.st.Stats()
		st.Hits += s.Hits
		st.Misses += s.Misses
	}
	if gets > 0 {
		l.set("store.get_us", float64(getNS)/float64(gets)/1e3, "us")
	}
	if puts > 0 {
		l.set("store.put_us", float64(putNS)/float64(puts)/1e3, "us")
	}
	l.set("store.hits", float64(st.Hits), "count")
	l.set("store.misses", float64(st.Misses), "count")
	if n := st.Hits + st.Misses; n > 0 {
		l.set("store.hit_ratio", float64(st.Hits)/float64(n), "ratio")
	}
	if led.groups > 0 {
		n := float64(led.groups)
		l.set("sim.workload_gen_ms", ms(led.gen)/n, "ms")
		l.set("sim.private_replay_ms", ms(led.replay)/n, "ms")
		l.set("sim.lane_run_ms", ms(led.laneRun)/n, "ms")
		l.set("sim.barrier_ms", ms(led.barrier)/n, "ms")
		l.set("sim.window_grows", float64(led.grows), "count")
		l.set("sim.batch_wall_ms", ms(led.groupWall)/n, "ms")
		if led.laneCapacity > 0 {
			l.set("sim.lane_utilization", 100*float64(led.laneRun)/float64(led.laneCapacity), "%")
		}
		l.phases = &phaseSum{gen: led.gen, barrier: led.barrier, laneRun: led.laneRun,
			laneCapacity: led.laneCapacity, wall: led.groupWall, groups: led.groups}
	}
	now, err := b.fleetStatus(ctx)
	if err != nil {
		l.note("fleet status unavailable: %v", err)
		return
	}
	var fwd, fromStore, leases uint64
	var leaseMS float64
	for i, s := range now {
		s0 := b.fleet0[i]
		fwd += s.CellsForwarded - s0.CellsForwarded
		fromStore += s.CellsFromStore - s0.CellsFromStore
		// The lease histogram is cumulative: the window's share is the
		// difference of count × mean.
		if dn := s.LeaseLatency.Count - s0.LeaseLatency.Count; dn > 0 {
			leases += dn
			leaseMS += s.LeaseLatency.Mean*float64(s.LeaseLatency.Count) - s0.LeaseLatency.Mean*float64(s0.LeaseLatency.Count)
		}
	}
	l.set("dist.cells_forwarded", float64(fwd), "count")
	l.set("dist.cells_from_store", float64(fromStore), "count")
	if leases > 0 {
		l.set("dist.lease_ms", leaseMS/float64(leases), "ms")
	}
}

func (b *serviceBench) close() error {
	if b.stopWkrs != nil {
		b.stopWkrs()
		b.workers.Wait()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var errs []error
	for _, nd := range b.nodes {
		if nd.srv != nil {
			if err := nd.srv.Shutdown(ctx); err != nil {
				errs = append(errs, err)
			}
			<-nd.served
		}
		if nd.svc != nil {
			if err := nd.svc.Shutdown(ctx); err != nil {
				errs = append(errs, err)
			}
		}
	}
	b.transport.CloseIdleConnections()
	return errors.Join(errs...)
}

// timedBackend times the blob layer under a Store.
type timedBackend struct {
	store.Backend
	gets, puts, getNS, putNS atomic.Int64
}

func (t *timedBackend) Get(addr string) ([]byte, error) {
	t0 := time.Now()
	data, err := t.Backend.Get(addr)
	t.getNS.Add(int64(time.Since(t0)))
	t.gets.Add(1)
	return data, err
}

func (t *timedBackend) Put(addr string, data []byte) error {
	t0 := time.Now()
	err := t.Backend.Put(addr, data)
	t.putNS.Add(int64(time.Since(t0)))
	t.puts.Add(1)
	return err
}
