// Command benchcmp records `go test -bench` results as JSON and gates the
// build on throughput regressions.
//
// Record mode parses benchmark output on stdin and writes one JSON record
// per benchmark (median across -count repetitions):
//
//	go test -run '^$' -bench ... -count 3 . | benchcmp -record -out BENCH_sim.json
//
// Check mode parses a fresh run on stdin and compares it against a recorded
// baseline, failing (exit 1) when any benchmark's throughput metric drops
// more than -tolerance below the baseline (or, for benchmarks without a
// throughput metric, when ns/op grows more than -tolerance):
//
//	go test -run '^$' -bench ... -count 3 . | benchcmp -check -baseline BENCH_sim.json
//
// Medians across repetitions make the gate robust to scheduler noise;
// benchmarks present in only one of the two sets are reported but do not
// fail the check, so adding a benchmark does not require regenerating the
// baseline in the same commit.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark's recorded performance.
type Result struct {
	Name      string  `json:"name"`
	NsPerOp   float64 `json:"ns_per_op"`
	InstrPerS float64 `json:"instr_per_s,omitempty"` // ReportMetric("instr/s"), 0 when absent
	Reps      int     `json:"reps"`                  // repetitions the medians were taken over
}

// File is the BENCH_sim.json layout.
type File struct {
	Note       string   `json:"note"`
	Benchmarks []Result `json:"benchmarks"`
}

func main() {
	var (
		record    = flag.Bool("record", false, "parse stdin and write a baseline JSON file")
		check     = flag.Bool("check", false, "parse stdin and compare against -baseline")
		out       = flag.String("out", "BENCH_sim.json", "output path for -record")
		baseline  = flag.String("baseline", "BENCH_sim.json", "baseline path for -check")
		tolerance = flag.Float64("tolerance", 0.10, "allowed fractional regression before -check fails")
	)
	flag.Parse()
	if *record == *check {
		fmt.Fprintln(os.Stderr, "benchcmp: exactly one of -record or -check is required")
		os.Exit(2)
	}

	fresh, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchcmp: %v\n", err)
		os.Exit(2)
	}
	if len(fresh) == 0 {
		fmt.Fprintln(os.Stderr, "benchcmp: no benchmark lines on stdin")
		os.Exit(2)
	}

	if *record {
		f := File{
			Note:       "medians of `go test -bench` repetitions; regenerate with `make bench-quick`",
			Benchmarks: fresh,
		}
		data, err := json.MarshalIndent(f, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchcmp: %v\n", err)
			os.Exit(2)
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "benchcmp: %v\n", err)
			os.Exit(2)
		}
		for _, r := range fresh {
			fmt.Printf("recorded %-40s %12.0f ns/op", r.Name, r.NsPerOp)
			if r.InstrPerS > 0 {
				fmt.Printf(" %12.0f instr/s", r.InstrPerS)
			}
			fmt.Printf("  (median of %d)\n", r.Reps)
		}
		return
	}

	data, err := os.ReadFile(*baseline)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchcmp: %v\n", err)
		os.Exit(2)
	}
	var base File
	if err := json.Unmarshal(data, &base); err != nil {
		fmt.Fprintf(os.Stderr, "benchcmp: %s: %v\n", *baseline, err)
		os.Exit(2)
	}
	if !compare(os.Stdout, fresh, base.Benchmarks, *tolerance) {
		fmt.Fprintf(os.Stderr, "benchcmp: throughput regressed more than %.0f%% against %s\n", 100**tolerance, *baseline)
		os.Exit(1)
	}
}

// compare prints one verdict line per benchmark of fresh against base and
// reports whether none regressed by more than tolerance. Throughput
// (instr/s) is compared when both sides have it, ns/op otherwise.
// Benchmarks present on only one side are listed but never fail.
func compare(w io.Writer, fresh, base []Result, tolerance float64) bool {
	baseBy := map[string]Result{}
	for _, r := range base {
		baseBy[r.Name] = r
	}
	failed := false
	for _, r := range fresh {
		b, ok := baseBy[r.Name]
		if !ok {
			fmt.Fprintf(w, "new      %-40s (no baseline, skipped)\n", r.Name)
			continue
		}
		delete(baseBy, r.Name)
		var ratio float64 // >0 = improvement fraction, <0 = regression
		var detail string
		if b.InstrPerS > 0 && r.InstrPerS > 0 {
			ratio = r.InstrPerS/b.InstrPerS - 1
			detail = fmt.Sprintf("%.0f → %.0f instr/s", b.InstrPerS, r.InstrPerS)
		} else {
			ratio = b.NsPerOp/r.NsPerOp - 1
			detail = fmt.Sprintf("%.0f → %.0f ns/op", b.NsPerOp, r.NsPerOp)
		}
		status := "ok      "
		if ratio < -tolerance {
			status = "REGRESSED"
			failed = true
		}
		fmt.Fprintf(w, "%s %-40s %+6.1f%%  (%s)\n", status, r.Name, 100*ratio, detail)
	}
	for name := range baseBy {
		fmt.Fprintf(w, "missing  %-40s (in baseline, not in this run)\n", name)
	}
	return !failed
}

// parse extracts benchmark result lines from `go test -bench` output and
// reduces repeated runs of the same benchmark to their medians.
func parse(f io.Reader) ([]Result, error) {
	type samples struct {
		ns    []float64
		instr []float64
	}
	byName := map[string]*samples{}
	var order []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		// Benchmark lines: name, N, value unit [, value unit]...
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		// Strip the -N GOMAXPROCS suffix so reps aggregate cleanly.
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		s := byName[name]
		if s == nil {
			s = &samples{}
			byName[name] = s
			order = append(order, name)
		}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				s.ns = append(s.ns, v)
			case "instr/s":
				s.instr = append(s.instr, v)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	var out []Result
	for _, name := range order {
		s := byName[name]
		if len(s.ns) == 0 {
			continue
		}
		out = append(out, Result{
			Name:      name,
			NsPerOp:   median(s.ns),
			InstrPerS: median(s.instr),
			Reps:      len(s.ns),
		})
	}
	return out, nil
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}
