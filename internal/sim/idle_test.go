package sim

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"drishti/internal/cache"
	"drishti/internal/cpu"
	"drishti/internal/policies"
	"drishti/internal/prefetch"
	"drishti/internal/repl"
	"drishti/internal/trace"
	"drishti/internal/workload"
)

// oneActive returns readers for cfg's mix with only core c active (c < 0:
// none).
func oneActive(t testing.TB, cfg Config, c int) []trace.Reader {
	t.Helper()
	readers := make([]trace.Reader, cfg.Cores)
	if c >= 0 {
		mix := workload.Homogeneous(workload.SPECModels()[0].Scale(8, cfg.SetIndexBits()), cfg.Cores, 5)
		r, err := workload.NewReader(mix, c)
		if err != nil {
			t.Fatal(err)
		}
		readers[c] = r
	}
	return readers
}

func TestIdleCoresHaveNoPrivateState(t *testing.T) {
	cfg := ScaledConfig(4, 8)
	s, err := New(cfg, oneActive(t, cfg, 2))
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < cfg.Cores; c++ {
		built := []bool{s.cores[c] != nil, s.l1[c] != nil, s.l2[c] != nil, s.l1pf[c] != nil, s.l2pf[c] != nil}
		for i, b := range built {
			if b != (c == 2) {
				t.Fatalf("core %d: private state %d (core, l1, l2, l1pf, l2pf) built=%v, want %v", c, i, b, c == 2)
			}
		}
	}
}

// TestIdleCoresKeepPolicySeeds checks that the policy stack sees the same
// random stream however many cores are idle: idle cores still draw their
// prefetcher seeds, so a randomized LLC policy picks the same victims in
// an alone machine as in a fully active one.
func TestIdleCoresKeepPolicySeeds(t *testing.T) {
	cfg := ScaledConfig(4, 8)
	cfg.Policy = policies.Spec{Name: "random"}
	all := make([]trace.Reader, cfg.Cores)
	for c := range all {
		all[c] = oneActive(t, cfg, c)[c]
	}
	full, err := New(cfg, all)
	if err != nil {
		t.Fatal(err)
	}
	lean, err := New(cfg, oneActive(t, cfg, 3))
	if err != nil {
		t.Fatal(err)
	}
	for i := range full.built.PerSlice {
		for n := 0; n < 8; n++ {
			if a, b := full.built.PerSlice[i].Victim(0, repl.Access{}), lean.built.PerSlice[i].Victim(0, repl.Access{}); a != b {
				t.Fatalf("slice %d draw %d: victim %d with every core active, %d with one", i, n, a, b)
			}
		}
	}
}

// TestNewRejectsBadConfigWhenIdle checks that skipping idle cores'
// private state skips none of New's validation: each bad configuration is
// rejected with the same error whether every core, one core or no core is
// active.
func TestNewRejectsBadConfigWhenIdle(t *testing.T) {
	cases := []struct {
		name string
		edit func(*Config)
	}{
		{"unknown L1 prefetcher", func(c *Config) { c.L1Prefetcher = "oracle" }},
		{"unknown L2 prefetcher", func(c *Config) { c.L2Prefetcher = "oracle" }},
		{"bad CPU", func(c *Config) { c.CPU = cpu.Config{IssueWidth: 4, ROBSize: -1} }},
		{"non-power-of-two L1 sets", func(c *Config) { c.L1KB, c.L1Ways = 48, 8 }},
		{"non-power-of-two L2 sets", func(c *Config) { c.L2KB, c.L2Ways = 96, 8 }},
	}
	for _, tc := range cases {
		cfg := ScaledConfig(4, 8)
		tc.edit(&cfg)
		all := make([]trace.Reader, cfg.Cores)
		for c := range all {
			all[c] = oneActive(t, cfg, c)[c]
		}
		_, want := New(cfg, all)
		if want == nil {
			t.Fatalf("%s: accepted with every core active", tc.name)
		}
		for _, active := range []int{1, -1} {
			if _, err := New(cfg, oneActive(t, cfg, active)); fmt.Sprint(err) != want.Error() {
				t.Errorf("%s, active core %d: error %v, want %v", tc.name, active, err, want)
			}
		}
	}
}

// equipIdleCores gives s's idle cores the CPU models, private caches and
// prefetchers a fully built machine has. They stay idle, so the caches
// stay empty and only see inclusive back-invalidations.
func equipIdleCores(t *testing.T, s *System) {
	t.Helper()
	cfg := s.cfg
	for c := range s.cores {
		if s.cores[c] != nil {
			continue
		}
		s.cores[c] = cpu.MustNew(c, cfg.cpuConfig())
		s.l1[c] = cache.MustNew(cache.Config{Name: fmt.Sprintf("l1d-%d", c), Sets: cfg.l1Sets(), Ways: cfg.L1Ways},
			repl.NewLRU(cfg.l1Sets(), cfg.L1Ways))
		s.l2[c] = cache.MustNew(cache.Config{Name: fmt.Sprintf("l2-%d", c), Sets: cfg.l2Sets(), Ways: cfg.L2Ways},
			repl.NewSRRIP(cfg.l2Sets(), cfg.L2Ways))
		var err error
		if s.l1pf[c], err = prefetch.New(cfg.L1Prefetcher, 0); err != nil {
			t.Fatal(err)
		}
		if s.l2pf[c], err = prefetch.New(cfg.L2Prefetcher, 0); err != nil {
			t.Fatal(err)
		}
	}
}

// TestInclusiveAloneMatchesEquippedIdle runs inclusive-LLC alone runs —
// the path whose back-invalidation walks the private caches — and checks
// each against the same machine with empty private caches on its idle
// cores: the results must be identical, and the idle caches must end
// empty.
func TestInclusiveAloneMatchesEquippedIdle(t *testing.T) {
	cfg := ScaledConfig(4, 8)
	cfg.Instructions = 30_000
	cfg.Warmup = 5_000
	cfg.InclusiveLLC = true
	mix := workload.Homogeneous(workload.SPECModels()[0].Scale(8, cfg.SetIndexBits()), cfg.Cores, 5)
	alone, err := RunAloneNContext(context.Background(), cfg, mix, 2)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < cfg.Cores; c++ {
		lean, err := New(cfg, oneActive(t, cfg, c))
		if err != nil {
			t.Fatal(err)
		}
		leanRes, err := lean.RunContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		full, err := New(cfg, oneActive(t, cfg, c))
		if err != nil {
			t.Fatal(err)
		}
		equipIdleCores(t, full)
		fullRes, err := full.RunContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(leanRes, fullRes) {
			t.Fatalf("core %d: idle cores without private state changed the result:\n%+v\nvs\n%+v", c, leanRes, fullRes)
		}
		if got := leanRes.PerCore[c].IPC; got != alone[c] {
			t.Fatalf("core %d: IPC %v, RunAloneNContext %v", c, got, alone[c])
		}
		if leanRes.LLC.DemandMisses == 0 {
			t.Fatalf("core %d: no LLC misses, so nothing was back-invalidated", c)
		}
		for i := range full.l1 {
			if i == c {
				continue
			}
			if full.l1[i].Stats.Fills != 0 || full.l2[i].Stats.Fills != 0 {
				t.Fatalf("idle core %d's private caches were filled", i)
			}
		}
	}
}

// systemSink keeps BenchmarkNewSystem's machines live.
var systemSink *System

// BenchmarkNewSystem measures building a 32-core machine at harness scale
// 8 with every core active (a mix lane) and with one (an alone lane), each
// fresh (New) and recycled into the machine built before it, as a batch
// lane worker does (renew).
func BenchmarkNewSystem(b *testing.B) {
	cfg := ScaledConfig(32, 8)
	for _, bc := range []struct {
		name     string
		active   int // -1: all
		recycled bool
	}{{"all-active", -1, false}, {"one-active", 0, false}, {"all-active-recycled", -1, true}, {"one-active-recycled", 0, true}} {
		b.Run(bc.name, func(b *testing.B) {
			readers := oneActive(b, cfg, bc.active)
			if bc.active < 0 {
				for c := range readers {
					readers[c] = oneActive(b, cfg, c)[c]
				}
			}
			var spare *System
			if bc.recycled {
				var err error
				if spare, err = New(cfg, readers); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s, err := renew(spare, cfg, readers)
				if err != nil {
					b.Fatal(err)
				}
				if bc.recycled {
					spare = s
				}
				systemSink = s
			}
		})
	}
}
