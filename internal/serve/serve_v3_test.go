package serve

import (
	"bufio"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"drishti/internal/serve/api"
)

// TestTenantQuota429: a tenant at its non-terminal-job quota is rejected
// with 429 + Retry-After while other tenants keep submitting.
func TestTenantQuota429(t *testing.T) {
	s, srv, reg := testService(t, Options{Workers: -1, TenantQuota: 1})
	defer s.Shutdown(shortCtx(t))

	req := smallSweep(t)
	req.Tenant = "team-a"
	if _, resp := postJob(t, srv, req); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first team-a submit: HTTP %d", resp.StatusCode)
	}
	_, resp := postJob(t, srv, req)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit: HTTP %d, want 429", resp.StatusCode)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("over-quota Retry-After = %q, want a positive integer", resp.Header.Get("Retry-After"))
	}
	// Another tenant is unaffected — the quota is per tenant, not global.
	req.Tenant = "team-b"
	if _, resp := postJob(t, srv, req); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("team-b submit under team-a's quota: HTTP %d", resp.StatusCode)
	}
	if reg.Counter("jobs_rejected").Value() != 1 {
		t.Fatalf("jobs_rejected = %d, want 1", reg.Counter("jobs_rejected").Value())
	}
}

// TestDerivedRetryAfter pins the Retry-After derivation: depth+1 jobs at
// the observed mean duration over the worker pool, clamped to [1, 60],
// falling back to 5 with no history. The queue depth is an argument, so
// the service's live workers cannot drain it mid-assertion.
func TestDerivedRetryAfter(t *testing.T) {
	s, _, _ := testService(t, Options{Workers: 2, QueueCap: 4})
	defer s.Shutdown(shortCtx(t))

	if got := s.retryAfterSec(); got != 5 {
		t.Fatalf("retryAfterSec with no history = %d, want fallback 5", got)
	}
	// 3 queued + 1 incoming, mean 4s, 2 workers → ceil(4*4s/2) = 8s.
	s.mu.Lock()
	s.durTotal, s.durCount = 4*time.Second, 1
	s.mu.Unlock()
	if got := s.retryAfterFor(3); got != 8 {
		t.Fatalf("retryAfterFor(3) = %d, want 8 (4 jobs x 4s / 2 workers)", got)
	}
	// An empty queue still waits for the incoming job: ceil(4s/2) = 2s.
	if got := s.retryAfterSec(); got != 2 {
		t.Fatalf("retryAfterSec on an empty queue = %d, want 2", got)
	}
	// A huge backlog estimate clamps to 60.
	s.mu.Lock()
	s.durTotal = 10 * time.Minute
	s.mu.Unlock()
	if got := s.retryAfterFor(3); got != 60 {
		t.Fatalf("retryAfterFor(3) = %d, want clamp 60", got)
	}
}

// TestPriorityLanes: the queue drains interactive before normal before
// batch, FIFO within a class, regardless of submission order.
func TestPriorityLanes(t *testing.T) {
	q := newFifo()
	mk := func(id, prio string) *Job {
		r := JobRequest{Priority: prio}
		return &Job{ID: id, Request: r}
	}
	q.push(mk("b1", api.PriorityBatch))
	q.push(mk("n1", ""))
	q.push(mk("i1", api.PriorityInteractive))
	q.push(mk("n2", api.PriorityNormal))
	q.push(mk("i2", api.PriorityInteractive))
	want := []string{"i1", "i2", "n1", "n2", "b1"}
	for _, id := range want {
		j, ok := q.pop()
		if !ok || j.ID != id {
			t.Fatalf("pop = %v (ok=%v), want %s", j, ok, id)
		}
	}
	if q.depth() != 0 {
		t.Fatalf("depth after drain = %d", q.depth())
	}
}

// TestResultStream drives GET /v1/jobs/{id}/results end to end: one
// strict-decodable "cell" event per sweep cell with unique indices, then
// exactly one "done" event, and the stream terminates.
func TestResultStream(t *testing.T) {
	s, srv, _ := testService(t, Options{Workers: 2})
	defer s.Shutdown(shortCtx(t))

	if code, _ := streamStatus(t, srv.URL+"/v1/jobs/zzz/results"); code != http.StatusNotFound {
		t.Fatalf("stream of unknown job: HTTP %d, want 404", code)
	}

	req := smallSweep(t)
	id, resp := postJob(t, srv, req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	// Connect immediately — the stream must follow live resolution.
	hr, err := http.Get(srv.URL + "/v1/jobs/" + id + "/results")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	if ct := hr.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream Content-Type = %q", ct)
	}
	wantCells := len(req.Policies) * len(req.Workloads)
	seen := map[int]bool{}
	var done *api.ResultEvent
	sc := bufio.NewScanner(hr.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		var ev api.ResultEvent
		if err := api.DecodeStrict(strings.NewReader(sc.Text()), &ev); err != nil {
			t.Fatalf("stream line fails DecodeStrict: %v\n%s", err, sc.Text())
		}
		switch ev.Event {
		case api.EventCell:
			if ev.Cell == nil {
				t.Fatalf("cell event without cell body: %s", sc.Text())
			}
			if seen[ev.Index] {
				t.Fatalf("index %d streamed twice", ev.Index)
			}
			seen[ev.Index] = true
		case api.EventDone:
			if done != nil {
				t.Fatal("second done event")
			}
			e := ev
			done = &e
		default:
			t.Fatalf("unknown event %q", ev.Event)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if done == nil || done.Status != StatusDone {
		t.Fatalf("stream ended without a done event: %+v", done)
	}
	if len(seen) != wantCells || done.Cells != wantCells {
		t.Fatalf("streamed %d cells, done reports %d, want %d", len(seen), done.Cells, wantCells)
	}
	// The buffered endpoint and the stream agree on the merged result.
	res := fetchResult(t, srv, id)
	if len(res.Cells) != wantCells {
		t.Fatalf("buffered result has %d cells", len(res.Cells))
	}

	// A late watcher connecting after the job settled replays everything.
	hr2, err := http.Get(srv.URL + "/v1/jobs/" + id + "/results")
	if err != nil {
		t.Fatal(err)
	}
	defer hr2.Body.Close()
	lines := 0
	sc2 := bufio.NewScanner(hr2.Body)
	sc2.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc2.Scan() {
		lines++
	}
	if lines != wantCells+1 {
		t.Fatalf("replay stream had %d lines, want %d cells + 1 done", lines, wantCells)
	}
}

func streamStatus(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	return resp.StatusCode, resp.Header.Get("Content-Type")
}
