package workload

import (
	"testing"

	"drishti/internal/trace"
)

// collectN drains n records from a reader, failing the test on exhaustion
// (generators are infinite).
func collectN(t *testing.T, r trace.Reader, n int) []trace.Rec {
	t.Helper()
	out := make([]trace.Rec, 0, n)
	for i := 0; i < n; i++ {
		rec, ok := r.Next()
		if !ok {
			t.Fatalf("generator exhausted after %d records", i)
		}
		out = append(out, rec)
	}
	return out
}

func recsEqual(t *testing.T, label string, got, want []trace.Rec) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: record %d = %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// TestGeneratorForkReplay is the fork property test: a fork taken after
// advance records replays byte-identically to (a) a fresh generator
// advanced to the same position and (b) the original continuing — and the
// two subsequently evolve independently.
func TestGeneratorForkReplay(t *testing.T) {
	models := AllSPECGAP()
	// A deterministic pseudo-random walk over (model, seed, position)
	// triples; positions land both below and above the stream chunk size.
	positions := []int{0, 1, 7, 63, 500, 2048, 5000}
	for mi := 0; mi < len(models); mi += 5 {
		model := models[mi]
		t.Run(model.Name, func(t *testing.T) {
			seed := uint64(mi)*0x9e37 + 1
			for _, advance := range positions {
				const tail = 1500
				orig := MustGenerator(model, seed)
				collectN(t, orig, advance)
				fork := orig.Fork()

				fresh := MustGenerator(model, seed)
				collectN(t, fresh, advance)
				want := collectN(t, fresh, tail)

				recsEqual(t, "fork vs fresh", collectN(t, fork, tail), want)
				recsEqual(t, "original vs fresh", collectN(t, orig, tail), want)

				// Independence: draining one stream further must not
				// disturb a second fork taken at the same point.
				orig2 := MustGenerator(model, seed)
				collectN(t, orig2, advance)
				fork2 := orig2.Fork()
				collectN(t, orig2, 3*tail)
				recsEqual(t, "fork after original drained", collectN(t, fork2, tail), want)
			}
		})
	}
}

// TestPhasedGeneratorForkReplay covers forks taken right at, just before,
// and just after PhasedGenerator phase boundaries.
func TestPhasedGeneratorForkReplay(t *testing.T) {
	const period = 256
	model := PhasedMcf(period)
	for _, advance := range []int{0, period - 1, period, period + 1, 3*period - 1, 4 * period} {
		const tail = 2 * period
		orig, err := NewPhasedGenerator(model, 42)
		if err != nil {
			t.Fatal(err)
		}
		collectN(t, orig, advance)
		fork := orig.Fork()
		if fork.Phase() != orig.Phase() {
			t.Fatalf("advance %d: fork phase %d, original phase %d", advance, fork.Phase(), orig.Phase())
		}

		fresh, err := NewPhasedGenerator(model, 42)
		if err != nil {
			t.Fatal(err)
		}
		collectN(t, fresh, advance)
		want := collectN(t, fresh, tail)

		recsEqual(t, "phased fork vs fresh", collectN(t, fork, tail), want)
		recsEqual(t, "phased original vs fresh", collectN(t, orig, tail), want)
	}
}

// TestStreamCursorsReplay checks that cursors at different positions read
// identical records to a private generator, across chunk recycling.
func TestStreamCursorsReplay(t *testing.T) {
	model := AllSPECGAP()[0]
	const n = 3 * streamChunkLen
	want := collectN(t, MustGenerator(model, 7), n)

	s := NewStream(MustGenerator(model, 7), 0)
	fast, slow := s.Cursor(), s.Cursor()
	for i := 0; i < n; i++ {
		rec, ok := fast.Next()
		if !ok || rec != want[i] {
			t.Fatalf("fast cursor record %d = %+v ok=%v, want %+v", i, rec, ok, want[i])
		}
		// The slow cursor trails by half a chunk; release behind it.
		if i >= streamChunkLen/2 {
			j := i - streamChunkLen/2
			rec, ok := slow.Next()
			if !ok || rec != want[j] {
				t.Fatalf("slow cursor record %d = %+v ok=%v, want %+v", j, rec, ok, want[j])
			}
			s.Release(slow.Pos())
		}
	}
	if got := fast.Pos(); got != n {
		t.Fatalf("fast cursor pos = %d, want %d", got, n)
	}
}

// TestStreamLoopsFiniteSource checks the stream loops a finite reader the
// same way the simulator's step loop does.
func TestStreamLoopsFiniteSource(t *testing.T) {
	recs := []trace.Rec{{PC: 1, Addr: 64}, {PC: 2, Addr: 128, Write: true}, {PC: 3, Addr: 192}}
	s := NewStream(trace.NewSliceReader(recs), 4)
	c := s.Cursor()
	for i := 0; i < 10; i++ {
		rec, ok := c.Next()
		if !ok || rec != recs[i%len(recs)] {
			t.Fatalf("record %d = %+v ok=%v, want %+v", i, rec, ok, recs[i%len(recs)])
		}
	}
}

// TestStreamChunkLenRoundsUp checks a chunk length that is not a power of
// two is rounded up, and that records still come back in order across
// chunk edges and releases.
func TestStreamChunkLenRoundsUp(t *testing.T) {
	recs := make([]trace.Rec, 50)
	for i := range recs {
		recs[i] = trace.Rec{PC: uint64(i), Addr: uint64(i) * 64}
	}
	for _, n := range []int{1, 3, 5, 8, 100} {
		s := NewStream(trace.NewSliceReader(recs), n)
		if l := s.chunkLen; l < uint64(n) || l&(l-1) != 0 {
			t.Fatalf("chunkLen %d for %d, want the next power of two", l, n)
		}
		c := s.Cursor()
		for i := 0; i < 3*len(recs); i++ {
			if rec, ok := c.Next(); !ok || rec != recs[i%len(recs)] {
				t.Fatalf("chunk %d: record %d = %+v ok=%v, want %+v", n, i, rec, ok, recs[i%len(recs)])
			}
			s.Release(c.Pos())
		}
	}
}

// BenchmarkStreamCursor is the cost of one record read through a shared
// stream's cursor, with two cursors reading in turn as two batch lanes do
// and the window released behind the slower one every 1024 reads. The
// source is a replayed trace, so generation is almost free and ns/op is
// the window's own cost.
func BenchmarkStreamCursor(b *testing.B) {
	g := MustGenerator(AllSPECGAP()[0], 1)
	s := NewStream(trace.NewSliceReader(trace.Collect(g, 1<<15)), 0)
	lanes := [2]*Cursor{s.Cursor(), s.Cursor()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchRec, _ = lanes[i&1].Next()
		if i&1023 == 0 {
			s.Release(min(lanes[0].Pos(), lanes[1].Pos()))
		}
	}
}
