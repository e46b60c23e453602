// Package sim assembles and runs the full many-core system: per-core OOO
// timing models, private L1D/L2 with prefetchers, the sliced NUCA LLC with
// a pluggable replacement stack, the mesh and NOCSTAR interconnects, and
// DRAM. It is the substrate every experiment in the paper runs on.
package sim

import (
	"fmt"
	"runtime"
	"time"

	"drishti/internal/cpu"
	"drishti/internal/dram"
	"drishti/internal/noc"
	"drishti/internal/obs"
	"drishti/internal/policies"
)

// Config describes one simulated system. Defaults follow Table 4.
type Config struct {
	Cores int

	// LLC geometry: one slice per core.
	SliceKB int // 2048 (2 MB per slice)
	LLCWays int // 16

	// Private caches.
	L1KB   int // 48
	L1Ways int // 12
	L2KB   int // 512
	L2Ways int // 8

	// Access latencies in cycles (L1 5, L2 15, LLC 20 + NoC).
	L1Latency  uint32
	L2Latency  uint32
	LLCLatency uint32

	// Mesh parameters: per-hop and router cycles. With 4 and 2 a 32-node
	// mesh averages ≈20 cycles, matching Section 4.1.3.
	MeshPerHop  uint32
	MeshRouter  uint32
	StarLatency uint32 // NOCSTAR end-to-end latency (3)

	// DRAM. A zero value takes dram.DefaultConfig(Cores).
	DRAM dram.Config

	// Replacement policy stack for the LLC.
	Policy policies.Spec

	// Prefetchers ("none", "next-line", "ip-stride", "spp", "bingo",
	// "ipcp", "berti", "gaze").
	L1Prefetcher string
	L2Prefetcher string

	// Per-core instruction counts.
	Instructions uint64 // measured region per core
	Warmup       uint64 // warmup instructions per core

	// CPU model. A zero value takes cpu.DefaultConfig.
	CPU cpu.Config

	Seed uint64

	// TrackPCSlices enables the Fig 2 PC→slice scatter tracker.
	TrackPCSlices bool

	// InclusiveLLC makes the LLC inclusive of L1/L2: an LLC eviction
	// back-invalidates the line from every private cache. The paper's
	// baseline is non-inclusive (Table 4); this knob exists for inclusion-
	// victim ablations.
	InclusiveLLC bool

	// ModelMSHRs enforces Table 4's per-level miss-status-register limits
	// (L1D 8, L2 16, LLC slice 64) instead of approximating MLP with the
	// ROB window alone.
	ModelMSHRs bool

	// MSHR sizes (used when ModelMSHRs is set; zero = Table 4 defaults).
	L1MSHRs  int
	L2MSHRs  int
	LLCMSHRs int

	// TelemetryEpoch > 0 enables the epoch snapshotter: every TelemetryEpoch
	// LLC demand accesses (summed across slices) one obs.Epoch of stat deltas
	// is written to TelemetrySink. Zero disables telemetry entirely; the hot
	// path then costs a single nil check. Telemetry is observational only —
	// it must not change simulation results (design decision D5).
	TelemetryEpoch uint64
	TelemetrySink  obs.EpochSink
	TelemetryTag   string // run label stamped on every epoch (e.g. a run ID)

	// Phases, when non-nil, receives coarse wall-clock phase timings from
	// batched runs (workload generation, private-hierarchy replay, per-lane
	// LLC access loops, lockstep window barriers). Like TelemetrySink it is
	// observational only: it measures time around existing work and must
	// never change simulation results. Nil costs one check per batch phase
	// (never per access).
	Phases PhaseObserver

	// LaneWorkers bounds how many lanes of a batched run (RunBatch) execute
	// concurrently between lockstep barriers; the same workers materialize
	// the per-core shared streams at each barrier, one core per task. It is
	// set only by code: each caller derives it from the CPUs it may spend
	// (the experiment harness from its Parallelism budget, a fleet worker
	// from the capacity slots a lease group holds, the job service 1). 0
	// means min(lanes, GOMAXPROCS). Results, and telemetry bytes on a
	// shared sink, are bit-identical at every setting (lanes share only
	// read-only window state between barriers and merge in lane order), so
	// this is purely a wall-clock knob and is excluded from Key(). It
	// composes multiplicatively with sweep-level parallelism: keep cells ×
	// lanes within the host's core budget.
	LaneWorkers int
}

// PhaseObserver receives wall-clock phase timings from a batched run.
// Phase names are "workload-gen", "private-replay", "lane-run", "barrier",
// and "window-grow"; lane is the variant index the timing belongs to, or
// -1 for work shared by all lanes. A phase may be reported multiple times
// (implementations accumulate); "window-grow" is reported with a zero
// duration once per deadlock-breaker window growth, so its count — which
// is identical at every LaneWorkers setting — is observable.
//
// "workload-gen" covers building the shared streams and, on the raw-stream
// tier, generating the records of the first window, before the first
// rotation. On the expanded tier that first window is private-hierarchy
// replay and is reported as "private-replay", as is every later barrier's
// expansion. "barrier" covers the barriers after the first rotation,
// their generation included.
//
// Concurrency contract: shared phases ("workload-gen", "private-replay",
// "barrier", "window-grow") are always reported from the goroutine
// driving the batch, but "lane-run" timings arrive from the lane pool's
// worker goroutines. Implementations must therefore be safe for
// concurrent use (the built-in span-attribute collector in internal/dist
// synchronizes internally).
type PhaseObserver interface {
	ObservePhase(phase string, lane int, d time.Duration)
}

// DefaultConfig returns the paper's baseline system for the given core
// count, with a small default instruction budget suitable for tests; the
// experiment harness scales Instructions explicitly.
func DefaultConfig(cores int) Config {
	return Config{
		Cores:        cores,
		SliceKB:      2048,
		LLCWays:      16,
		L1KB:         48,
		L1Ways:       12,
		L2KB:         512,
		L2Ways:       8,
		L1Latency:    5,
		L2Latency:    15,
		LLCLatency:   20,
		MeshPerHop:   4,
		MeshRouter:   2,
		StarLatency:  noc.DefaultStarLatency,
		Policy:       policies.Spec{Name: "lru"},
		L1Prefetcher: "next-line",
		L2Prefetcher: "ip-stride",
		Instructions: 50_000,
		Warmup:       10_000,
		CPU:          cpu.DefaultConfig(),
		Seed:         1,
	}
}

// ScaledConfig returns the baseline machine shrunk by scale (cache sizes
// divided by scale, geometry otherwise identical). Experiments run at
// harness scale pair it with workload.Model.Scale(scale, cfg.SetIndexBits())
// so footprint-to-capacity ratios — which is what replacement behavior
// depends on — match the full-size machine while simulating 100–1000×
// fewer instructions (DESIGN.md §4 scale note).
func ScaledConfig(cores, scale int) Config {
	cfg := DefaultConfig(cores)
	if scale <= 1 {
		return cfg
	}
	div := func(v, min int) int {
		v /= scale
		if v < min {
			v = min
		}
		return v
	}
	cfg.SliceKB = div(cfg.SliceKB, 64)
	cfg.L2KB = div(cfg.L2KB, 16)
	cfg.L1KB = div(cfg.L1KB, 6)
	return cfg
}

// SetIndexBits returns the per-slice LLC set-index width, which workload
// hot-set steering must target.
func (c Config) SetIndexBits() int {
	sets := c.llcSetsPerSlice()
	bits := 0
	for 1<<uint(bits+1) <= sets {
		bits++
	}
	return bits
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Cores <= 0 {
		return fmt.Errorf("sim: cores must be positive")
	}
	if c.SliceKB <= 0 || c.LLCWays <= 0 || c.L1KB <= 0 || c.L2KB <= 0 {
		return fmt.Errorf("sim: cache sizes must be positive")
	}
	if c.L1Ways <= 0 || c.L2Ways <= 0 {
		return fmt.Errorf("sim: private cache ways must be positive (L1 %d, L2 %d)", c.L1Ways, c.L2Ways)
	}
	if c.Instructions == 0 {
		return fmt.Errorf("sim: zero instruction budget")
	}
	if c.llcSetsPerSlice() <= 0 {
		return fmt.Errorf("sim: slice %d KB too small for %d ways", c.SliceKB, c.LLCWays)
	}
	if c.l1Sets() <= 0 || c.l2Sets() <= 0 {
		return fmt.Errorf("sim: private caches (L1 %d KB × %d ways, L2 %d KB × %d ways) too small for one set",
			c.L1KB, c.L1Ways, c.L2KB, c.L2Ways)
	}
	if c.TrackPCSlices && c.Cores > pcTrackSlices {
		return fmt.Errorf("sim: PC→slice tracking covers at most %d slices, config has %d cores", pcTrackSlices, c.Cores)
	}
	if c.TelemetryEpoch > 0 && c.TelemetrySink == nil {
		return fmt.Errorf("sim: telemetry epoch %d with no sink", c.TelemetryEpoch)
	}
	return nil
}

func (c Config) llcSetsPerSlice() int { return c.SliceKB * 1024 / 64 / c.LLCWays }
func (c Config) l1Sets() int          { return c.L1KB * 1024 / 64 / c.L1Ways }
func (c Config) l2Sets() int          { return c.L2KB * 1024 / 64 / c.L2Ways }

func (c Config) dramConfig() dram.Config {
	if c.DRAM.Channels == 0 {
		return dram.DefaultConfig(c.Cores)
	}
	return c.DRAM
}

func (c Config) l1MSHRs() int {
	if c.L1MSHRs > 0 {
		return c.L1MSHRs
	}
	return 8
}

func (c Config) l2MSHRs() int {
	if c.L2MSHRs > 0 {
		return c.L2MSHRs
	}
	return 16
}

func (c Config) llcMSHRs() int {
	if c.LLCMSHRs > 0 {
		return c.LLCMSHRs
	}
	return 64
}

func (c Config) cpuConfig() cpu.Config {
	if c.CPU.IssueWidth == 0 {
		return cpu.DefaultConfig()
	}
	return c.CPU
}

// laneWorkers resolves the lane-worker pool size for a batch of k lanes:
// LaneWorkers, or GOMAXPROCS when it is 0, clamped to [1, k] — more
// workers than lanes would only idle.
func (c Config) laneWorkers(k int) int {
	w := c.LaneWorkers
	if w == 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return max(1, min(w, k))
}
