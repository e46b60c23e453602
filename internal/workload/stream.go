package workload

import (
	"fmt"
	"math/bits"

	"drishti/internal/trace"
)

// streamChunkLen is the Stream materialization granularity. Chunks are
// recycled once every cursor has moved past them, so the resident window
// is a few chunks per core regardless of run length.
const streamChunkLen = 2048

// Stream materializes a single trace.Reader into a bounded, chunked
// window that several consumers read at independent positions. It is the
// shared-trace layer of batched simulation: one generator produces each
// record exactly once, and every lane replays it through its own Cursor.
//
// A finite source is looped (Reset + reread) exactly like Feed loops the
// serial simulator's readers, so cursors see an endless stream either way.
// Storage is bounded by the caller advancing Release past positions no
// cursor will read again; reading below the released low-water mark panics
// (it is a scheduling bug, not a recoverable condition).
//
// Stream is not safe for unsynchronized concurrent mutation. Concurrent
// batched lanes may read already-materialized records through their
// cursors from several goroutines, provided Ensure has run up to every
// position the lanes may reach, and Ensure/Release run only at barriers,
// on one goroutine per stream, while no cursor is reading (the lockstep
// discipline in sim.runLockstep, which ensures different streams on
// different goroutines).
type Stream struct {
	src      *trace.LoopReader
	chunkLen uint64 // a power of two
	shift    uint   // log2(chunkLen): get splits a position with a shift and a mask
	base     uint64 // absolute record index of chunks[0][0]
	next     uint64 // absolute record index of the first unmaterialized record
	chunks   [][]trace.Rec
	free     [][]trace.Rec
	done     bool // src exhausted and empty on loop (degenerate source)
}

// NewStream wraps src. chunkLen <= 0 selects the default granularity;
// any other value is rounded up to a power of two.
func NewStream(src trace.Reader, chunkLen int) *Stream {
	if chunkLen <= 0 {
		chunkLen = streamChunkLen
	}
	shift := uint(bits.Len(uint(chunkLen - 1)))
	return &Stream{src: trace.NewLoopReader(src), chunkLen: 1 << shift, shift: shift}
}

// get returns the record at absolute position pos, materializing from the
// source as needed. ok is false only for a degenerate (empty) source.
func (s *Stream) get(pos uint64) (trace.Rec, bool) {
	for pos >= s.next {
		if !s.fill() {
			return trace.Rec{}, false
		}
	}
	if pos < s.base {
		panic(fmt.Sprintf("workload: stream read at %d below released window base %d", pos, s.base))
	}
	off := pos - s.base
	return s.chunks[off>>s.shift][off&(s.chunkLen-1)], true
}

// fill materializes one more chunk. A finite source is looped via Reset
// (see fillChunk), so every chunk is full unless the source is empty even
// after a Reset.
func (s *Stream) fill() bool {
	if s.done {
		return false
	}
	var c []trace.Rec
	if n := len(s.free); n > 0 {
		c, s.free = s.free[n-1][:0], s.free[:n-1]
	} else {
		c = make([]trace.Rec, 0, s.chunkLen)
	}
	c, ok := fillChunk(s.src, c, int(s.chunkLen))
	s.done = !ok
	if len(c) == 0 {
		return false
	}
	s.chunks = append(s.chunks, c)
	s.next += uint64(len(c))
	return true
}

// Ensure materializes records until every position below pos is readable
// (or the source is degenerate). Call it at a barrier, from one goroutine
// per stream, while no cursor reads. After Ensure(pos), cursor reads
// strictly below pos never mutate the stream, so they are safe from
// concurrent goroutines until the next Ensure/Release.
func (s *Stream) Ensure(pos uint64) {
	for s.next < pos && s.fill() {
	}
}

// Release recycles every chunk wholly below min — the minimum position any
// cursor will read again. Reading below min afterwards panics.
func (s *Stream) Release(min uint64) {
	drop := 0
	for drop < len(s.chunks) &&
		uint64(len(s.chunks[drop])) == s.chunkLen &&
		s.base+uint64(drop+1)*s.chunkLen <= min {
		drop++
	}
	if drop == 0 {
		return
	}
	s.free = append(s.free, s.chunks[:drop]...)
	s.chunks = append(s.chunks[:0], s.chunks[drop:]...)
	s.base += uint64(drop) * s.chunkLen
}

// Cursor returns a new consumer positioned at the stream's origin. Every
// lane of a batch reads through its own cursor.
func (s *Stream) Cursor() *Cursor { return &Cursor{s: s} }

// Cursor is one consumer's read position in a Stream. It implements
// trace.Reader except for Reset: the window behind the low-water mark is
// recycled, so shared-stream consumption is strictly single-pass (the
// stream itself already loops finite sources).
type Cursor struct {
	s   *Stream
	pos uint64
}

// Next implements trace.Reader.
func (c *Cursor) Next() (trace.Rec, bool) {
	rec, ok := c.s.get(c.pos)
	if ok {
		c.pos++
	}
	return rec, ok
}

// Pos returns the absolute index of the record the next Next will return.
// Batch schedulers compare cursor positions to bound lane skew.
func (c *Cursor) Pos() uint64 { return c.pos }

// Reset implements trace.Reader by panicking: shared-stream cursors are
// single-pass by construction (see Cursor).
func (c *Cursor) Reset() {
	panic("workload: shared-stream cursors cannot be reset")
}
