package workload

import (
	"strings"
	"testing"

	"drishti/internal/trace"
)

// feedTestReaders returns one reader of each kind the simulator runs, plus
// an idle core: a model generator, a phased generator, and a short replayed
// trace whose length is coprime with the chunk size, so it loops through
// Reset in the middle of chunks.
func feedTestReaders(t testing.TB) []trace.Reader {
	t.Helper()
	models := AllSPECGAP()
	g, err := NewGenerator(models[0], 11)
	if err != nil {
		t.Fatal(err)
	}
	pg, err := NewPhasedGenerator(PhasedMcf(300), 12)
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewGenerator(models[1], 13)
	if err != nil {
		t.Fatal(err)
	}
	return []trace.Reader{g, nil, pg, trace.NewSliceReader(trace.Collect(src, 37))}
}

// Each core's records through the feed equal its reader's own sequence,
// with finite readers looped, whatever order the consumer reads cores in.
func TestFeedMatchesReaders(t *testing.T) {
	const perCore = 5_000
	want := make([][]trace.Rec, 4)
	for c, r := range feedTestReaders(t) {
		if r != nil {
			want[c] = trace.Collect(trace.NewLoopReader(r), perCore)
		}
	}
	f := NewFeed(feedTestReaders(t))
	defer f.Close()
	got := make([]int, 4)
	// Uneven consumption rates: core c reads c+1 records per turn.
	for step := 0; ; step++ {
		progressed := false
		for c := range want {
			if want[c] == nil {
				continue
			}
			for k := 0; k <= c && got[c] < perCore; k++ {
				rec, ok := f.Next(c)
				if !ok {
					t.Fatalf("core %d: feed ended after %d records", c, got[c])
				}
				if rec != want[c][got[c]] {
					t.Fatalf("core %d record %d: feed %+v, reader %+v", c, got[c], rec, want[c][got[c]])
				}
				got[c]++
				progressed = true
			}
		}
		if !progressed {
			break
		}
	}
}

// A source that is empty even after a Reset reports ok=false, repeatedly,
// without blocking, while other cores keep flowing.
func TestFeedDegenerateSource(t *testing.T) {
	g, err := NewGenerator(AllSPECGAP()[0], 1)
	if err != nil {
		t.Fatal(err)
	}
	f := NewFeed([]trace.Reader{trace.NewSliceReader(nil), g})
	defer f.Close()
	for i := 0; i < 3*feedChunkLen; i++ {
		if _, ok := f.Next(0); ok {
			t.Fatal("empty source produced a record")
		}
		if _, ok := f.Next(1); !ok {
			t.Fatal("generator core stopped")
		}
	}
}

// panicReader panics once it has produced n records.
type panicReader struct{ n int }

func (p *panicReader) Next() (trace.Rec, bool) {
	if p.n == 0 {
		panic("reader broke")
	}
	p.n--
	return trace.Rec{Gap: 1}, true
}

func (p *panicReader) Reset() {}

// A reader's panic on the producer goroutine resurfaces on the consumer's
// goroutine: from Next when it asks for the records that were never
// produced, else from Close.
func TestFeedReaderPanicReachesConsumer(t *testing.T) {
	for _, tc := range []struct{ records, consume int }{
		{feedChunkLen + 5, 4 * feedChunkLen}, // Next gets one chunk, then the panic
		{5, 0},                               // Close meets a producer that panicked
	} {
		f := NewFeed([]trace.Reader{&panicReader{n: tc.records}})
		func() {
			defer func() {
				p := recover()
				if p == nil || !strings.Contains(p.(string), "reader broke") {
					t.Fatalf("consumed %d: recovered %v, want the reader's panic", tc.consume, p)
				}
			}()
			defer f.Close() // must not panic a second time
			for i := 0; i < tc.consume; i++ {
				f.Next(0)
			}
			if tc.consume > 0 {
				t.Fatal("consumer read past the reader's panic")
			}
			<-f.done // the producer panicked and exited before Close
		}()
	}
}

// Close returns with the producer stopped, whether or not the consumer
// read anything, and leaves the readers alone afterwards.
func TestFeedCloseStopsProducer(t *testing.T) {
	for _, consume := range []int{0, 1, 10 * feedChunkLen} {
		readers := feedTestReaders(t)
		counted := make([]*countingReader, len(readers))
		for c, r := range readers {
			if r != nil {
				counted[c] = &countingReader{Reader: r}
				readers[c] = counted[c]
			}
		}
		f := NewFeed(readers)
		for i := 0; i < consume; i++ {
			f.Next(0)
		}
		f.Close()
		for _, r := range counted {
			if r != nil {
				r.closed = true // any later Next or Reset panics
			}
		}
		// The producer runs at most feedDepth chunks ahead of the consumer.
		if n := counted[0].calls; n > consume+feedDepth*feedChunkLen {
			t.Fatalf("core 0 generated %d records for %d consumed", n, consume)
		}
	}
}

// countingReader counts calls and panics once closed is set, which a test
// does after the feed has stopped.
type countingReader struct {
	trace.Reader
	calls  int
	closed bool
}

func (r *countingReader) Next() (trace.Rec, bool) {
	if r.closed {
		panic("Next after Close")
	}
	r.calls++
	return r.Reader.Next()
}

func (r *countingReader) Reset() {
	if r.closed {
		panic("Reset after Close")
	}
	r.Reader.Reset()
}

// BenchmarkGeneratorNext is the direct cost of one generated record.
func BenchmarkGeneratorNext(b *testing.B) {
	g, err := NewGenerator(AllSPECGAP()[0], 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchRec, _ = g.Next()
	}
}

// benchRec keeps the compiler from dropping the benchmarked calls.
var benchRec trace.Rec

// BenchmarkFeed is the consumer-side cost of one record through the feed,
// read round-robin over 64 cores as the simulator's step loop reads them,
// with the producer goroutine running alongside. With generators behind
// it ("gen") a consumer that does nothing else waits on generation, so
// ns/record matches BenchmarkGeneratorNext; with a replayed trace
// ("replay") generation is almost free and ns/record is the handoff's own
// cost.
func BenchmarkFeed(b *testing.B) {
	const cores = 64
	models := AllSPECGAP()
	for _, replay := range []bool{false, true} {
		name := "gen"
		if replay {
			name = "replay"
		}
		b.Run(name, func(b *testing.B) {
			readers := make([]trace.Reader, cores)
			for c := range readers {
				g, err := NewGenerator(models[c%len(models)], uint64(c)+1)
				if err != nil {
					b.Fatal(err)
				}
				readers[c] = g
				if replay {
					readers[c] = trace.NewSliceReader(trace.Collect(g, 4096))
				}
			}
			f := NewFeed(readers)
			defer f.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchRec, _ = f.Next(i % cores)
			}
		})
	}
}
