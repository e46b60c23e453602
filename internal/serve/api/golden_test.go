package api

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"drishti/internal/obs/trace"
	"drishti/internal/sim"
)

var update = flag.Bool("update", false, "rewrite the golden wire-format files")

// encodeWire renders v exactly the way the service's writeJSON does (two-
// space indent, trailing newline), so the golden files pin the bytes a /v1
// client actually receives.
func encodeWire(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run go test ./internal/serve/api -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from the golden wire format.\n--- got ---\n%s--- want ---\n%s"+
			"A deliberate schema change must bump api.Version and regenerate with -update.",
			name, got, want)
	}
}

// TestGoldenWireFormat pins the exact /v1 response bytes for every body the
// job service emits. A refactor of the api package (field rename, tag change,
// reordering) that alters the wire format fails here before any client sees
// it; requests without apiVersion must keep producing the pre-versioning
// bytes.
func TestGoldenWireFormat(t *testing.T) {
	started := time.Date(2026, 8, 5, 12, 0, 1, 0, time.UTC)
	finished := time.Date(2026, 8, 5, 12, 0, 2, 0, time.UTC)

	req := JobRequest{
		Cores:        2,
		Scale:        8,
		Instructions: 20_000,
		Warmup:       5_000,
		Seed:         1,
		Policies:     []PolicyRequest{{Name: "lru"}, {Name: "mockingjay", Drishti: true}},
		Workloads:    []string{"mcf", "hetero"},
	}

	view := JobView{
		ID:         "job-000001",
		Status:     StatusDone,
		Attempts:   1,
		EnqueuedAt: time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC),
		StartedAt:  &started,
		FinishedAt: &finished,
		Request:    req,
		TraceID:    "0123456789abcdef0123456789abcdef",
	}
	checkGolden(t, "job_view.golden.json", encodeWire(t, view))

	// A tracing-off job view must not leak an empty traceId field.
	offView := view
	offView.TraceID = ""
	if bytes.Contains(encodeWire(t, offView), []byte("traceId")) {
		t.Error("empty TraceID leaked into the wire format")
	}

	// An unversioned request must render byte-identically with and without
	// the APIVersion field in the struct — omitempty keeps the wire clean.
	if bytes.Contains(encodeWire(t, req), []byte("apiVersion")) {
		t.Error("zero APIVersion leaked into the wire format; unversioned clients would see a new field")
	}

	result := JobResult{
		Cells: []CellResult{
			{
				Policy:   "lru",
				Workload: "mcf",
				Mix:      "hom-mcf",
				IPCSum:   1.25,
				MPKI:     12.5,
				WPKI:     3.125,
				APKI:     20.0625,
				Result:   &sim.Result{PolicyName: "lru", Cores: 2, Budget: map[string]int{"lru": 0}},
			},
			{
				Policy:    "mockingjay+drishti",
				Workload:  "mcf",
				Mix:       "hom-mcf",
				FromStore: true,
			},
		},
		StoreHits:   1,
		StoreMisses: 1,
		ElapsedMS:   1000,
	}
	checkGolden(t, "job_result.golden.json", encodeWire(t, result))

	checkGolden(t, "error.golden.json", encodeWire(t, Error{Error: "no such job"}))

	fleet := FleetStatus{
		APIVersion: Version,
		Workers: []WorkerStatus{
			{ID: "w001-node-a", Name: "node-a", Capacity: 4, ActiveLeases: 2, CellsCompleted: 7, LastBeatMS: 150},
		},
		PendingCells:   3,
		ActiveLeases:   2,
		LeasesExpired:  1,
		CellsCompleted: 7,
		CellsRetried:   1,
		CellsLocal:     0,
		CellsResolved:  9,
		CellsFromStore: 2,
		StoreHitRatio:  2.0 / 9.0,
		LeaseLatency:   LatencyStats{Count: 7, Mean: 812.5, P50: 750, P99: 1900},
		BatchLaneCount: 4,
		Coordinators:   []string{"http://coord-a:8411", "http://coord-b:8411"},
		CellsForwarded: 5,
		CellsRemote:    4,
	}
	checkGolden(t, "fleet_status.golden.json", encodeWire(t, fleet))

	tv := TraceView{
		TraceID: "0123456789abcdef0123456789abcdef",
		Spans: []trace.Span{
			{
				TraceID:     "0123456789abcdef0123456789abcdef",
				SpanID:      "00000000000000aa",
				Name:        "job",
				Node:        "served",
				StartUnixNS: 1754390401000000000,
				DurationNS:  1000000000,
				Attrs:       map[string]string{"status": "done"},
			},
			{
				TraceID:     "0123456789abcdef0123456789abcdef",
				SpanID:      "00000000000000bb",
				ParentID:    "00000000000000aa",
				Name:        "lane",
				Node:        "w001-node-a",
				StartUnixNS: 1754390401200000000,
				DurationNS:  650000000,
			},
		},
	}
	checkGolden(t, "trace_view.golden.json", encodeWire(t, tv))
}

// TestGoldenWireFormatV3 pins the bodies the v3 schema added: the
// multi-tenant request fields, the streaming result events (compact
// NDJSON, one event per line, exactly as the /results endpoint frames
// them), and the coordinator forwarding messages.
func TestGoldenWireFormatV3(t *testing.T) {
	req := JobRequest{
		APIVersion: Version,
		Cores:      2,
		Policies:   []PolicyRequest{{Name: "lru"}},
		Workloads:  []string{"mcf"},
		Tenant:     "team-a",
		Priority:   PriorityInteractive,
	}
	checkGolden(t, "job_request_v3.golden.json", encodeWire(t, req))

	// An unversioned request without the v3 fields must render without
	// them — omitempty keeps old clients' wire format untouched.
	plain := req
	plain.APIVersion = 0
	plain.Tenant, plain.Priority = "", ""
	for _, field := range []string{"tenant", "priority"} {
		if bytes.Contains(encodeWire(t, plain), []byte(field)) {
			t.Errorf("empty %s leaked into the unversioned wire format", field)
		}
	}

	// The streaming endpoint emits compact one-line events, not the
	// indented framing of the buffered endpoints.
	events := []ResultEvent{
		{Event: EventCell, Index: 1, Cell: &CellResult{
			Policy: "lru", Workload: "mcf", Mix: "hom-mcf", FromStore: true, IPCSum: 1.25, MPKI: 12.5, WPKI: 3.125, APKI: 20.0625,
		}},
		{Event: EventDone, Status: StatusDone, Cells: 2, StoreHits: 1, StoreMisses: 1, ElapsedMS: 1000},
	}
	var stream bytes.Buffer
	for _, ev := range events {
		line, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		stream.Write(line)
		stream.WriteByte('\n')
	}
	checkGolden(t, "result_events.golden.ndjson", stream.Bytes())

	// Every pinned stream line must survive a strict round trip — the
	// same DecodeStrict gate loadgen and tests apply at the boundary.
	for _, line := range bytes.Split(bytes.TrimSpace(stream.Bytes()), []byte("\n")) {
		var ev ResultEvent
		if err := DecodeStrict(bytes.NewReader(line), &ev); err != nil {
			t.Errorf("pinned stream line fails DecodeStrict: %v\n%s", err, line)
		}
	}

	fwd := ForwardCellsRequest{
		APIVersion: Version,
		Origin:     "http://coord-a:8411",
		JobID:      "j000001-deadbeef",
		TraceID:    "0123456789abcdef0123456789abcdef",
		SpanID:     "00000000000000aa",
		Cells: []CellSpec{{
			Index:         1,
			Key:           "cfg|mix",
			Request:       JobRequest{Cores: 2, Policies: []PolicyRequest{{Name: "lru"}}, Workloads: []string{"mcf"}},
			WorkloadIndex: 0,
			PolicyIndex:   0,
		}},
	}
	checkGolden(t, "forward_cells.golden.json", encodeWire(t, fwd))

	done := ForwardCompleteRequest{
		APIVersion: Version,
		Owner:      "http://coord-b:8411",
		JobID:      "j000001-deadbeef",
		Index:      1,
		FromStore:  false,
		Result:     &sim.Result{PolicyName: "lru", Cores: 2, Budget: map[string]int{"lru": 0}},
	}
	checkGolden(t, "forward_complete.golden.json", encodeWire(t, done))
}
