package dist_test

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"drishti/internal/dist"
	"drishti/internal/obs"
	"drishti/internal/ring"
	"drishti/internal/serve"
	"drishti/internal/serve/api"
	"drishti/internal/store"
	"drishti/internal/workload"
)

// newPeeredFleets builds a two-coordinator fleet over one sharded store:
// two unstarted HTTP servers (so each coordinator knows its peer's URL
// before construction), two stateless coordinator+service pairs, each
// holding its own store handle over the same shard directories — exactly
// two `drishti-served -fleet -peers=...` processes on a shared filesystem.
//
// Ring ownership follows the listeners' random ports, so the servers
// re-listen (a bounded number of times) until each coordinator owns at
// least one of req's cells; otherwise the whole sweep could land on one
// coordinator and nothing would be forwarded.
func newPeeredFleets(t *testing.T, req api.JobRequest, workersB bool) (*fleet, *fleet) {
	t.Helper()
	root := t.TempDir()
	dirs := []string{filepath.Join(root, "shard0"), filepath.Join(root, "shard1")}

	keys := cellKeys(t, req)
	var (
		sA, sB     *httptest.Server
		urlA, urlB string
	)
	for attempt := 1; ; attempt++ {
		sA = httptest.NewUnstartedServer(http.NotFoundHandler())
		sB = httptest.NewUnstartedServer(http.NotFoundHandler())
		urlA = "http://" + sA.Listener.Addr().String()
		urlB = "http://" + sB.Listener.Addr().String()
		owners := make(map[string]bool)
		rg := ring.New([]string{urlA, urlB}, 0) // as dist.NewCoordinator builds it
		for _, k := range keys {
			owners[rg.Owner(k)] = true
		}
		if owners[urlA] && owners[urlB] {
			break
		}
		sA.Listener.Close()
		sB.Listener.Close()
		if attempt == 20 {
			t.Fatalf("%d listener pairs never split %d cells across both coordinators", attempt, len(keys))
		}
	}

	build := func(self, peer string, srv *httptest.Server) *fleet {
		st, err := store.OpenSharded(dirs, 0) // write-through: peers see results immediately
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		coord, err := dist.NewCoordinator(dist.CoordinatorOptions{
			Store:        st,
			Self:         self,
			Peers:        []string{peer},
			LeaseTTL:     5 * time.Second,
			WorkerTTL:    5 * time.Second,
			PollInterval: 10 * time.Millisecond,
			Registry:     reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		svc, err := serve.New(serve.Options{
			Store:       st,
			StoreDir:    t.TempDir(), // roots only the queue file
			Workers:     2,
			Registry:    reg,
			Distributor: coord,
		})
		if err != nil {
			t.Fatal(err)
		}
		srv.Config.Handler = coord.Handler(svc.Handler())
		srv.Start()
		t.Cleanup(srv.Close)
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			svc.Shutdown(ctx)
		})
		return &fleet{coord: coord, svc: svc, srv: srv, reg: reg, dir: t.TempDir()}
	}
	fA := build(urlA, urlB, sA)
	fB := build(urlB, urlA, sB)

	startWorker(t, fA, dist.WorkerOptions{Name: "wa", Capacity: 2})
	waitWorkers(t, fA)
	if workersB {
		// An owner without a live worker declines forwarded cells, so B's
		// worker must have registered before a test submits.
		startWorker(t, fB, dist.WorkerOptions{Name: "wb", Capacity: 2})
		waitWorkers(t, fB)
	}
	return fA, fB
}

// waitWorkers blocks until f's coordinator reports a registered worker.
func waitWorkers(t *testing.T, f *fleet) {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); len(fleetStatus(t, f).Workers) == 0; {
		if time.Now().After(deadline) {
			t.Fatal("worker never registered")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// cellKeys returns the ring keys of req's cells, as the coordinator
// derives them after the service applies the request defaults.
func cellKeys(t *testing.T, req api.JobRequest) []string {
	t.Helper()
	req = req.WithDefaults()
	nw, np, err := req.Grid()
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for wi := 0; wi < nw; wi++ {
		for pi := 0; pi < np; pi++ {
			cfg, mix, err := req.Cell(wi, pi)
			if err != nil {
				t.Fatal(err)
			}
			keys = append(keys, api.CellKey(cfg, mix))
		}
	}
	return keys
}

// forwardSweep is an 8-cell sweep; newPeeredFleets makes sure the ring
// splits its ownership across the two coordinators.
func forwardSweep(t *testing.T) api.JobRequest {
	t.Helper()
	name := workload.AllSPECGAP()[0].Name
	return api.JobRequest{
		Cores:        2,
		Scale:        8,
		Instructions: 20_000,
		Warmup:       5_000,
		Policies: []api.PolicyRequest{
			{Name: "lru"}, {Name: "srrip"}, {Name: "brrip"}, {Name: "random"},
		},
		Workloads: []string{name, "hetero"},
	}
}

// TestE2EMultiCoordinatorShardedByteIdentical is the scaling acceptance
// test: a sweep submitted to one of two peered coordinators over a sharded
// store — with cells forwarded to the peer and executed by the peer's
// workers — returns a payload byte-identical to the same sweep on a single
// node, and a repeat submission to the *other* coordinator is served
// entirely from the shared store.
func TestE2EMultiCoordinatorShardedByteIdentical(t *testing.T) {
	req := forwardSweep(t)

	// Single-node reference run.
	single, err := serve.New(serve.Options{
		StoreDir: t.TempDir(), Workers: 2, Registry: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		single.Shutdown(ctx)
	}()
	ssrv := httptest.NewServer(single.Handler())
	defer ssrv.Close()
	sf := &fleet{srv: ssrv}
	sid := submitJob(t, sf, req)
	waitDone(t, sf, sid, 60*time.Second)
	want := canonicalPayload(t, fetchResult(t, sf, sid))

	// Two-coordinator run, submitted to A.
	fA, fB := newPeeredFleets(t, req, true)
	id := submitJob(t, fA, req)
	waitDone(t, fA, id, 60*time.Second)
	got := canonicalPayload(t, fetchResult(t, fA, id))
	if !bytes.Equal(got, want) {
		t.Fatalf("two-coordinator sweep differs from single-node run:\n--- fleet ---\n%s\n--- single ---\n%s", got, want)
	}

	stA, stB := fleetStatus(t, fA), fleetStatus(t, fB)
	if len(stA.Coordinators) != 2 || len(stB.Coordinators) != 2 {
		t.Fatalf("ring membership not reported: A=%v B=%v", stA.Coordinators, stB.Coordinators)
	}
	if stA.CellsForwarded == 0 {
		t.Fatalf("origin forwarded no cells; ownership never split (A status: %+v)", stA)
	}
	if stB.CellsRemote != stA.CellsForwarded {
		t.Fatalf("owner adopted %d cells, origin forwarded %d", stB.CellsRemote, stA.CellsForwarded)
	}
	if stA.ForwardsReowned != 0 {
		t.Fatalf("%d forwards re-owned in a healthy fleet", stA.ForwardsReowned)
	}

	// Same sweep against coordinator B: every cell comes from the shared
	// sharded store, no simulation anywhere.
	id2 := submitJob(t, fB, req)
	waitDone(t, fB, id2, 30*time.Second)
	res2 := fetchResult(t, fB, id2)
	cells := len(req.Policies) * len(req.Workloads)
	if res2.StoreHits != cells || res2.StoreMisses != 0 {
		t.Fatalf("warm run on peer B: hits=%d misses=%d, want %d/0", res2.StoreHits, res2.StoreMisses, cells)
	}
	if !bytes.Equal(canonicalPayload(t, res2), want) {
		t.Fatal("warm peer-B payload differs from single-node run")
	}
}

// TestForwardDeclinedWorkerlessOwner: a peer with no workers declines
// forwarded cells, and the origin runs the whole sweep itself — forwarding
// is an optimization, never a dependency.
func TestForwardDeclinedWorkerlessOwner(t *testing.T) {
	req := forwardSweep(t)
	fA, fB := newPeeredFleets(t, req, false) // B has no workers
	id := submitJob(t, fA, req)
	waitDone(t, fA, id, 60*time.Second)
	res := fetchResult(t, fA, id)
	if got := len(res.Cells); got != len(req.Policies)*len(req.Workloads) {
		t.Fatalf("sweep returned %d cells", got)
	}
	stA, stB := fleetStatus(t, fA), fleetStatus(t, fB)
	if stA.CellsForwarded != 0 {
		t.Fatalf("origin counted %d forwarded cells despite the decline", stA.CellsForwarded)
	}
	if stB.CellsRemote != 0 || stB.CellsCompleted != 0 {
		t.Fatalf("workerless owner executed cells: %+v", stB)
	}
}
