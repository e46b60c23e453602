package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// fingerprint identifies the code a run measured.
type fingerprint struct {
	commit string // VCS revision stamped into the binary, when it was built in a git tree
	source string // SHA-256 over every Go source file and go.mod under the working directory
}

func readFingerprint() fingerprint {
	fp := fingerprint{commit: "none", source: sourceDigest(".")}
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			fp.commit = rev
			if dirty {
				fp.commit += "+dirty"
			}
		}
	}
	return fp
}

// sourceDigest hashes the path and content of every .go and go.mod file
// below root, skipping hidden directories (build output lives there).
func sourceDigest(root string) string {
	var paths []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are skipped, not fatal
		}
		if d.IsDir() {
			if p != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(p, ".go") || d.Name() == "go.mod" {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		io.WriteString(h, p+"\x00")
		io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// loadavg is /proc/loadavg without its trailing newline.
func loadavg() string {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return "unavailable"
	}
	return strings.TrimSpace(string(b))
}

// cpuTicks is the aggregate "cpu" line of /proc/stat: user, nice, system,
// idle, iowait, irq, softirq, steal, in clock ticks; nil where unavailable.
func cpuTicks() []uint64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return nil
	}
	out := make([]uint64, 8)
	for i := range out {
		out[i], _ = strconv.ParseUint(fields[i+1], 10, 64)
	}
	return out
}

// cpuSplit describes how the machine's CPU time went between two cpuTicks
// readings. Steal is time the hypervisor ran something else while this
// machine's CPUs wanted to run: a run with high steal was measured on a
// loaded host.
func cpuSplit(from, to []uint64) string {
	if from == nil || to == nil {
		return "unavailable"
	}
	d := make([]float64, len(to))
	var total float64
	for i := range to {
		d[i] = float64(to[i] - from[i])
		total += d[i]
	}
	if total == 0 {
		return "no ticks"
	}
	return fmt.Sprintf("user %.1f%% system %.1f%% idle %.1f%% steal %.1f%%",
		100*(d[0]+d[1])/total, 100*(d[2]+d[5]+d[6])/total, 100*(d[3]+d[4])/total, 100*d[7]/total)
}

// peakRSSMB is the process's VmHWM (peak resident set) in MB, or 0 where
// /proc is unavailable.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) >= 2 {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// median of ds (mean of the middle pair for even counts); 0 when empty.
func median(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank p-quantile of ds and how many samples lie
// strictly above its rank.
func percentile(ds []time.Duration, p float64) (time.Duration, int) {
	if len(ds) == 0 {
		return 0, 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(math.Ceil(p * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1], len(s) - rank
}

// subSeed derives the seed of input n in a named stream from the run seed,
// so every unit, warm-up and primer of a run gets distinct, reproducible
// inputs. The result stays in 40 bits, well inside what the generators
// print and hash.
func subSeed(base uint64, stream string, n int) uint64 {
	h := sha256.Sum256([]byte(stream + "/" + strconv.FormatUint(base, 10) + "/" + strconv.Itoa(n)))
	v := uint64(0)
	for _, b := range h[:5] {
		v = v<<8 | uint64(b)
	}
	return v | 1
}

// setupSeed seeds the warm-up units of sweep-fig13 and cell-64c in place of
// --seed. A warm-up unit's cost depends on the mix its seed draws (a
// homogeneous mix replicates one benchmark on every core), so with a fixed
// seed every run sets up the same work and setup_s moves only with the
// code and the host.
const setupSeed = 0

// digest accumulates the simulated statistics of a run's units: the first
// unit's bytes alone and all units' in order.
type digest struct {
	first, all hash.Hash
	units      int
}

func newDigest() *digest { return &digest{first: sha256.New(), all: sha256.New()} }

// add folds one unit's statistics, given as canonical byte strings.
func (d *digest) add(parts ...[]byte) {
	for _, p := range parts {
		if d.units == 0 {
			d.first.Write(p)
		}
		d.all.Write(p)
	}
	d.units++
}

func (d *digest) sums() (string, string) {
	return hex.EncodeToString(d.first.Sum(nil)), hex.EncodeToString(d.all.Sum(nil))
}
