// Package trace defines the instruction-trace abstraction consumed by the
// simulator, together with an in-memory implementation and a compact binary
// on-disk format.
//
// A trace is a stream of memory instructions. Each record carries the number
// of non-memory instructions that retire before it (Gap), so a record stream
// of length M represents M + sum(Gap) instructions — the same information a
// ChampSim trace provides, at a fraction of the size.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// Rec is one memory instruction plus its preceding non-memory instructions.
type Rec struct {
	PC    uint64 // program counter of the memory instruction
	Addr  uint64 // effective byte address
	Write bool   // true for stores (RFOs)
	Gap   uint32 // non-memory instructions retired immediately before this one
}

// Instructions returns the number of instructions this record represents.
func (r Rec) Instructions() uint64 { return uint64(r.Gap) + 1 }

// Reader produces a (possibly infinite) stream of records.
type Reader interface {
	// Next returns the next record. ok is false when the stream is
	// exhausted; finite readers stay exhausted until Reset.
	Next() (rec Rec, ok bool)
	// Reset rewinds the stream to its beginning.
	Reset()
}

// SliceReader adapts a []Rec into a Reader.
type SliceReader struct {
	recs []Rec
	pos  int
}

// NewSliceReader returns a Reader over recs. The slice is not copied.
func NewSliceReader(recs []Rec) *SliceReader { return &SliceReader{recs: recs} }

// Next implements Reader.
func (s *SliceReader) Next() (Rec, bool) {
	if s.pos >= len(s.recs) {
		return Rec{}, false
	}
	r := s.recs[s.pos]
	s.pos++
	return r, true
}

// Reset implements Reader.
func (s *SliceReader) Reset() { s.pos = 0 }

// Fork returns an independent reader continuing from the current position.
// The record slice is shared (it is read-only); only the cursor is copied.
func (s *SliceReader) Fork() *SliceReader {
	c := *s
	return &c
}

// Len returns the number of records.
func (s *SliceReader) Len() int { return len(s.recs) }

// Collect drains up to n records from r into a slice. n <= 0 collects until
// the reader is exhausted (do not use with infinite readers).
func Collect(r Reader, n int) []Rec {
	var out []Rec
	for n <= 0 || len(out) < n {
		rec, ok := r.Next()
		if !ok {
			break
		}
		out = append(out, rec)
	}
	return out
}

// LoopReader repeats an underlying finite reader forever.
type LoopReader struct {
	inner Reader
}

// NewLoopReader wraps inner; when inner is exhausted it is Reset and
// reading continues. If inner is empty even after a Reset, Next returns
// ok=false.
func NewLoopReader(inner Reader) *LoopReader { return &LoopReader{inner: inner} }

// Next implements Reader.
func (l *LoopReader) Next() (Rec, bool) {
	rec, ok := l.inner.Next()
	if ok {
		return rec, true
	}
	l.inner.Reset()
	rec, ok = l.inner.Next()
	if !ok {
		return Rec{}, false
	}
	return rec, true
}

// Reset implements Reader.
func (l *LoopReader) Reset() { l.inner.Reset() }

// --- binary format -------------------------------------------------------

// magic identifies the drishti trace format, version 1.
var magic = [8]byte{'D', 'R', 'T', 'R', 'A', 'C', 'E', 1}

// Write serializes recs to w using delta + varint coding: PCs and addresses
// are usually near their predecessors, so the stream compresses well.
func Write(w io.Writer, recs []Rec) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magic[:]); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	putU := func(v uint64) error {
		n := binary.PutUvarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	if err := putU(uint64(len(recs))); err != nil {
		return err
	}
	var prevPC, prevAddr uint64
	for _, r := range recs {
		if err := putU(zigzag(int64(r.PC - prevPC))); err != nil {
			return err
		}
		if err := putU(zigzag(int64(r.Addr - prevAddr))); err != nil {
			return err
		}
		flags := uint64(r.Gap) << 1
		if r.Write {
			flags |= 1
		}
		if err := putU(flags); err != nil {
			return err
		}
		prevPC, prevAddr = r.PC, r.Addr
	}
	return bw.Flush()
}

// Read deserializes a trace written by Write. Write's encoding is
// canonical — every varint in its fewest bytes, nothing after the counted
// records — so Read rejects any other input: a damaged count or a
// stray byte must not read as a different, valid-looking trace.
func Read(r io.Reader) ([]Rec, error) {
	br := &varintReader{r: bufio.NewReader(r)}
	var got [8]byte
	if _, err := io.ReadFull(br.r, got[:]); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if got != magic {
		return nil, errors.New("trace: bad magic (not a drishti trace)")
	}
	n, err := br.uvarint()
	if err != nil {
		return nil, fmt.Errorf("trace: reading count: %w", err)
	}
	const maxRecs = 1 << 30
	if n > maxRecs {
		return nil, fmt.Errorf("trace: implausible record count %d", n)
	}
	// The count is untrusted until the records behind it are read, so it
	// only caps the initial capacity: a header claiming 2^30 records would
	// otherwise reserve 24 GiB before the first record is decoded.
	const maxInitialCap = 1 << 12
	recs := make([]Rec, 0, min(n, maxInitialCap))
	var prevPC, prevAddr uint64
	for i := uint64(0); i < n; i++ {
		dpc, err := br.uvarint()
		if err != nil {
			return nil, fmt.Errorf("trace: record %d pc: %w", i, err)
		}
		daddr, err := br.uvarint()
		if err != nil {
			return nil, fmt.Errorf("trace: record %d addr: %w", i, err)
		}
		flags, err := br.uvarint()
		if err != nil {
			return nil, fmt.Errorf("trace: record %d flags: %w", i, err)
		}
		if gap := flags >> 1; gap > math.MaxUint32 {
			return nil, fmt.Errorf("trace: record %d gap %d overflows uint32", i, gap)
		}
		prevPC += uint64(unzigzag(dpc))
		prevAddr += uint64(unzigzag(daddr))
		recs = append(recs, Rec{
			PC:    prevPC,
			Addr:  prevAddr,
			Write: flags&1 != 0,
			Gap:   uint32(flags >> 1),
		})
	}
	switch _, err := br.r.ReadByte(); err {
	case io.EOF:
		return recs, nil
	case nil:
		return nil, fmt.Errorf("trace: bytes after the %d counted records", n)
	default:
		return nil, fmt.Errorf("trace: after the records: %w", err)
	}
}

// errOverlong reports a varint longer than its value needs.
var errOverlong = errors.New("overlong varint")

// varintReader reads Write's varints and rejects an overlong one: a
// varint of more than one byte whose last byte is 0 carries high bits
// that are all zero, so a shorter encoding of the same value exists.
type varintReader struct {
	r    *bufio.Reader
	last byte
	n    int
}

// ReadByte implements io.ByteReader, remembering the byte for uvarint.
func (v *varintReader) ReadByte() (byte, error) {
	b, err := v.r.ReadByte()
	v.last = b
	v.n++
	return b, err
}

func (v *varintReader) uvarint() (uint64, error) {
	v.n = 0
	x, err := binary.ReadUvarint(v)
	if err == nil && v.n > 1 && v.last == 0 {
		return 0, errOverlong
	}
	return x, err
}

func zigzag(v int64) uint64   { return uint64((v << 1) ^ (v >> 63)) }
func unzigzag(v uint64) int64 { return int64(v>>1) ^ -int64(v&1) }
