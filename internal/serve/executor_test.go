package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
	"time"

	"drishti/internal/obs/trace"
	"drishti/internal/sim"
	"drishti/internal/workload"
)

// TestLocalJobMatchesDirectRuns checks the single-node executor against an
// independent reference: every cell of a batched 2-workload × 3-policy job
// is byte-identical (JSON) to its own sim.RunMixContext run, and the traced
// job's batch-group, lane and store-write spans all hang under its job span.
func TestLocalJobMatchesDirectRuns(t *testing.T) {
	rec := trace.NewRecorder("served", nil)
	s, srv, _ := testService(t, Options{Workers: 1, Trace: rec})
	defer s.Shutdown(shortCtx(t))

	specgap := workload.AllSPECGAP()
	req := JobRequest{
		Cores:        2,
		Scale:        8,
		Instructions: 20_000,
		Warmup:       5_000,
		Policies:     []PolicyRequest{{Name: "lru"}, {Name: "srrip"}, {Name: "mockingjay", Drishti: true}},
		Workloads:    []string{specgap[0].Name, specgap[1].Name},
	}
	id, _ := postJob(t, srv, req)
	if v := waitTerminal(t, srv, id, time.Minute); v.Status != StatusDone {
		t.Fatalf("job ended %s: %s", v.Status, v.Error)
	}
	res := fetchResult(t, srv, id)

	req = req.WithDefaults()
	nw, np := len(req.Workloads), len(req.Policies)
	if len(res.Cells) != nw*np || res.StoreMisses != nw*np {
		t.Fatalf("got %d cells, %d misses; want %d of each", len(res.Cells), res.StoreMisses, nw*np)
	}
	for wi := 0; wi < nw; wi++ {
		for pi := 0; pi < np; pi++ {
			cfg, mix, err := req.Cell(wi, pi)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := sim.RunMixContext(context.Background(), cfg, mix)
			if err != nil {
				t.Fatal(err)
			}
			cell := res.Cells[wi*np+pi]
			if cell.Policy != cfg.Policy.DisplayName() || cell.Mix != mix.Name {
				t.Errorf("cell %d is %s on %s, want %s on %s", wi*np+pi,
					cell.Policy, cell.Mix, cfg.Policy.DisplayName(), mix.Name)
			}
			got, _ := json.Marshal(cell.Result)
			want, _ := json.Marshal(ref)
			if !bytes.Equal(got, want) {
				t.Errorf("cell %d (%s on %s): service result differs from a direct run\n got %s\nwant %s",
					wi*np+pi, cell.Policy, cell.Mix, got, want)
			}
		}
	}

	// The root job span is recorded just after the status flips to done.
	var spans []trace.Span
	for deadline := time.Now().Add(10 * time.Second); ; {
		tv, _ := s.Trace(id)
		spans = tv.Spans
		if hasJobSpan(spans) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("root job span never appeared; got %d spans", len(spans))
		}
		time.Sleep(5 * time.Millisecond)
	}
	byID := make(map[string]trace.Span, len(spans))
	count := make(map[string]int)
	for _, sp := range spans {
		byID[sp.SpanID] = sp
		count[sp.Name]++
	}
	for name, want := range map[string]int{"job": 1, "batch-group": nw, "lane": nw * np, "store-write": nw * np, "cell": 0} {
		if count[name] != want {
			t.Errorf("got %d %s spans, want %d", count[name], name, want)
		}
	}
	for _, sp := range spans {
		cur := sp
		for hops := 0; cur.ParentID != ""; hops++ {
			p, ok := byID[cur.ParentID]
			if !ok || hops > len(spans) {
				t.Fatalf("span %s (%s) does not reach the job span", sp.SpanID, sp.Name)
			}
			cur = p
		}
		if cur.Name != "job" {
			t.Errorf("span %s (%s) roots at %s, want job", sp.SpanID, sp.Name, cur.Name)
		}
	}
}

func hasJobSpan(spans []trace.Span) bool {
	for _, sp := range spans {
		if sp.Name == "job" {
			return true
		}
	}
	return false
}
