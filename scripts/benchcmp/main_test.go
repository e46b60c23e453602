package main

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// benchOut is `go test -bench -count 3 -benchmem` output: GOMAXPROCS
// suffixes, a custom instr/s metric, the B/op and allocs/op columns, and
// the non-benchmark lines around them.
const benchOut = `goos: linux
goarch: amd64
pkg: drishti
cpu: Intel(R) Xeon(R) Processor
BenchmarkSimulatorThroughput-2   	      10	 120000000 ns/op	   6000000 instr/s	 5242880 B/op	    1234 allocs/op
BenchmarkSimulatorThroughput-2   	      10	 100000000 ns/op	   7000000 instr/s	 5242880 B/op	    1234 allocs/op
BenchmarkSimulatorThroughput-2   	      10	 110000000 ns/op	   6500000 instr/s	 5242881 B/op	    1234 allocs/op
BenchmarkTraceGeneration-2       	      10	      2000 ns/op	     64 B/op	       1 allocs/op
BenchmarkTraceGeneration-2       	      10	      4000 ns/op	     64 B/op	       1 allocs/op
BenchmarkParallelBatchedSweep/w1-2	      10	  90000000 ns/op	  20000000 instr/s
BenchmarkParallelBatchedSweep/w1-2	      10	  80000000 ns/op	  22000000 instr/s
BenchmarkNoisyName-suffix	      10	       500 ns/op
BenchmarkShort-2  10
PASS
ok  	drishti	12.345s
`

func TestParse(t *testing.T) {
	got, err := parse(strings.NewReader(benchOut))
	if err != nil {
		t.Fatal(err)
	}
	want := []Result{
		// Medians: the middle of three, the mean of the middle two of an
		// even count; B/op and allocs/op are read past, not recorded.
		{Name: "BenchmarkSimulatorThroughput", NsPerOp: 110000000, InstrPerS: 6500000, Reps: 3},
		{Name: "BenchmarkTraceGeneration", NsPerOp: 3000, Reps: 2},
		{Name: "BenchmarkParallelBatchedSweep/w1", NsPerOp: 85000000, InstrPerS: 21000000, Reps: 2},
		// Only a numeric -N suffix is a GOMAXPROCS suffix.
		{Name: "BenchmarkNoisyName-suffix", NsPerOp: 500, Reps: 1},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parse:\n got %+v\nwant %+v", got, want)
	}
}

func TestParseEmpty(t *testing.T) {
	got, err := parse(strings.NewReader("PASS\nok  \tdrishti\t0.1s\n"))
	if err != nil || len(got) != 0 {
		t.Fatalf("parse of output without benchmark lines = %v, %v; want none", got, err)
	}
}

func TestCompareVerdicts(t *testing.T) {
	base := []Result{
		{Name: "BenchmarkFast", NsPerOp: 100, InstrPerS: 1000},
		{Name: "BenchmarkSlow", NsPerOp: 100, InstrPerS: 1000},
		{Name: "BenchmarkNs", NsPerOp: 100},
		{Name: "BenchmarkGone", NsPerOp: 100},
	}
	cases := []struct {
		name  string
		fresh []Result
		ok    bool
		lines []string // substrings the report must contain
	}{
		{
			name:  "within tolerance",
			fresh: []Result{{Name: "BenchmarkFast", NsPerOp: 500, InstrPerS: 950}},
			ok:    true,
			// instr/s wins over ns/op when both sides have it.
			lines: []string{"ok       BenchmarkFast", "-5.0%", "1000 → 950 instr/s", "missing  BenchmarkGone"},
		},
		{
			name:  "throughput regression",
			fresh: []Result{{Name: "BenchmarkSlow", NsPerOp: 100, InstrPerS: 850}},
			ok:    false,
			lines: []string{"REGRESSED BenchmarkSlow", "-15.0%"},
		},
		{
			name:  "ns/op regression",
			fresh: []Result{{Name: "BenchmarkNs", NsPerOp: 125}},
			ok:    false,
			lines: []string{"REGRESSED BenchmarkNs", "-20.0%", "100 → 125 ns/op"},
		},
		{
			name:  "improvement",
			fresh: []Result{{Name: "BenchmarkNs", NsPerOp: 50}},
			ok:    true,
			lines: []string{"ok       BenchmarkNs", "+100.0%"},
		},
		{
			name:  "new benchmark never fails",
			fresh: []Result{{Name: "BenchmarkNew", NsPerOp: 1e9}},
			ok:    true,
			lines: []string{"new      BenchmarkNew"},
		},
	}
	for _, c := range cases {
		var out bytes.Buffer
		if ok := compare(&out, c.fresh, base, 0.10); ok != c.ok {
			t.Errorf("%s: compare = %v, want %v\n%s", c.name, ok, c.ok, out.String())
		}
		for _, l := range c.lines {
			if !strings.Contains(out.String(), l) {
				t.Errorf("%s: report lacks %q:\n%s", c.name, l, out.String())
			}
		}
	}
}
