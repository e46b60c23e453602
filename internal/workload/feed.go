package workload

import (
	"fmt"

	"drishti/internal/trace"
)

// Feed sizing: every active core has feedDepth chunks of feedChunkLen
// records in circulation — one being read, one being filled or waiting.
// A 64-core simulation buffers 64 × 2 × 128 × 24 B = 384 KB.
const (
	feedChunkLen = 128
	feedDepth    = 2
)

// Feed runs one simulation's per-core trace readers on a single producer
// goroutine and hands their records to the consumer (the simulator's step
// loop) in fixed-size chunks through bounded per-core queues. Generation
// gets no feedback from the simulation, so it can run ahead on another CPU
// while the consumer reads each record with a slice index; each core's
// record sequence is exactly the reader's own, with a finite reader looped
// via Reset like Stream does.
//
// Threading: the readers' Next and Reset run only on the producer
// goroutine. Next and Close are for one consumer goroutine. Close stops the
// producer and returns once it has exited, after which the readers belong
// to the caller again. A panic inside a reader is re-raised on the
// consumer's goroutine, by the Next call that waits for the lost records or
// else by Close.
type Feed struct {
	cores []feedCursor
	free  chan feedChunk // consumed chunks, back to the producer
	stop  chan struct{}
	done  chan struct{} // closed when the producer has exited
	// panicked is the producer's recovered panic; written before done is
	// closed, read only after. raised records that the consumer re-raised it.
	panicked any
	raised   bool
}

// feedCursor is the consumer's position in one core's current chunk.
type feedCursor struct {
	cur   []trace.Rec
	pos   int
	ready chan []trace.Rec // filled chunks; closed once the source proves empty
}

type feedChunk struct {
	core int
	recs []trace.Rec
}

// NewFeed starts the producer over readers, one per core; nil entries are
// idle cores, and Next must never be called for them.
func NewFeed(readers []trace.Reader) *Feed {
	f := &Feed{
		cores: make([]feedCursor, len(readers)),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	srcs := make([]*trace.LoopReader, len(readers))
	ready := make([]chan []trace.Rec, len(readers))
	active := 0
	for c, r := range readers {
		if r == nil {
			continue
		}
		active++
		srcs[c] = trace.NewLoopReader(r)
		// Room for all of the core's chunks, so the producer never blocks.
		ready[c] = make(chan []trace.Rec, feedDepth)
		f.cores[c].ready = ready[c]
	}
	// Room for every chunk in circulation, so returning one never blocks.
	f.free = make(chan feedChunk, active*feedDepth)
	go f.produce(srcs, ready)
	return f
}

// Next returns core's next record. ok is false only for a source that is
// empty even after a Reset.
func (f *Feed) Next(core int) (rec trace.Rec, ok bool) {
	q := &f.cores[core]
	if q.pos < len(q.cur) {
		rec = q.cur[q.pos]
		q.pos++
		return rec, true
	}
	return f.refill(q, core)
}

// refill returns q's spent chunk to the producer and waits for the next.
func (f *Feed) refill(q *feedCursor, core int) (trace.Rec, bool) {
	if q.cur != nil {
		f.free <- feedChunk{core: core, recs: q.cur[:0]}
		q.cur = nil
	}
	select {
	case recs, ok := <-q.ready:
		if !ok {
			return trace.Rec{}, false
		}
		q.cur, q.pos = recs, 1
		return recs[0], true
	case <-f.done: // before Close, the producer only exits by panicking
		f.raised = true
		panic(fmt.Sprintf("workload: feed reader panicked: %v", f.panicked))
	}
}

// Close stops the producer and waits for it to exit. The consumer must not
// call Next afterwards. The readers are left where the producer stopped,
// up to feedDepth chunks past the last record consumed.
func (f *Feed) Close() {
	close(f.stop)
	<-f.done
	if f.panicked != nil && !f.raised {
		panic(fmt.Sprintf("workload: feed reader panicked: %v", f.panicked))
	}
}

// produce fills every active core's chunks up front, then refills each
// chunk the consumer returns, in the order they come back.
func (f *Feed) produce(srcs []*trace.LoopReader, ready []chan []trace.Rec) {
	defer close(f.done)
	defer func() { f.panicked = recover() }()
	fill := func(c int, buf []trace.Rec) {
		if srcs[c] == nil {
			return // the source proved empty; its queue is closed
		}
		buf, ok := fillChunk(srcs[c], buf, feedChunkLen)
		if len(buf) > 0 {
			ready[c] <- buf
		}
		if !ok {
			close(ready[c])
			srcs[c] = nil
		}
	}
	// One allocation backs every chunk in circulation; each chunk's
	// capacity is clipped so it never grows into the next.
	backing := make([]trace.Rec, cap(f.free)*feedChunkLen)
	for d := 0; d < feedDepth; d++ {
		for c := range srcs {
			if srcs[c] == nil {
				continue
			}
			select {
			case <-f.stop:
				return
			default:
			}
			fill(c, backing[:0:feedChunkLen])
			backing = backing[feedChunkLen:]
		}
	}
	for {
		select {
		case ch := <-f.free:
			fill(ch.core, ch.recs)
		case <-f.stop:
			return
		}
	}
}

// fillChunk appends records from src to buf until it holds n. ok is false
// once src yields nothing even after a Reset; buf then holds what was read.
// It is the one chunk-filling loop behind both Stream and Feed.
func fillChunk(src *trace.LoopReader, buf []trace.Rec, n int) ([]trace.Rec, bool) {
	for len(buf) < n {
		rec, ok := src.Next()
		if !ok {
			return buf, false
		}
		buf = append(buf, rec)
	}
	return buf, true
}
