package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

func TestSliceReader(t *testing.T) {
	recs := []Rec{{PC: 1, Addr: 64}, {PC: 2, Addr: 128, Write: true, Gap: 3}}
	r := NewSliceReader(recs)
	got := Collect(r, 0)
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("collected %+v", got)
	}
	if _, ok := r.Next(); ok {
		t.Fatal("exhausted reader returned a record")
	}
	r.Reset()
	if rec, ok := r.Next(); !ok || rec.PC != 1 {
		t.Fatal("Reset did not rewind")
	}
}

func TestCollectLimit(t *testing.T) {
	recs := make([]Rec, 10)
	got := Collect(NewSliceReader(recs), 4)
	if len(got) != 4 {
		t.Fatalf("Collect(4) returned %d", len(got))
	}
}

func TestLoopReader(t *testing.T) {
	recs := []Rec{{PC: 1}, {PC: 2}}
	l := NewLoopReader(NewSliceReader(recs))
	var pcs []uint64
	for i := 0; i < 5; i++ {
		rec, ok := l.Next()
		if !ok {
			t.Fatal("loop reader exhausted")
		}
		pcs = append(pcs, rec.PC)
	}
	want := []uint64{1, 2, 1, 2, 1}
	if !reflect.DeepEqual(pcs, want) {
		t.Fatalf("loop sequence %v", pcs)
	}
}

func TestLoopReaderEmptyInner(t *testing.T) {
	l := NewLoopReader(NewSliceReader(nil))
	if _, ok := l.Next(); ok {
		t.Fatal("empty inner should not produce records")
	}
}

func TestRecInstructions(t *testing.T) {
	if (Rec{Gap: 4}).Instructions() != 5 {
		t.Fatal("Instructions must count the memory op plus its gap")
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	recs := []Rec{
		{PC: 0x400000, Addr: 0x10000000, Gap: 3},
		{PC: 0x400004, Addr: 0x10000040, Write: true},
		{PC: 0x400000, Addr: 0x0fff0000, Gap: 1000000},
		{PC: 0xffffffffffff, Addr: 1},
	}
	var buf bytes.Buffer
	if err := Write(&buf, recs); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, recs)
	}
}

func TestRoundTripProperty(t *testing.T) {
	check := func(pcs []uint64, addrs []uint64, gaps []uint32) bool {
		n := len(pcs)
		if len(addrs) < n {
			n = len(addrs)
		}
		if len(gaps) < n {
			n = len(gaps)
		}
		recs := make([]Rec, n)
		for i := 0; i < n; i++ {
			recs[i] = Rec{PC: pcs[i], Addr: addrs[i], Gap: gaps[i] & 0x7fffffff, Write: gaps[i]%3 == 0}
		}
		var buf bytes.Buffer
		if err := Write(&buf, recs); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil {
			return false
		}
		if len(got) != len(recs) {
			return false
		}
		for i := range recs {
			if got[i] != recs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("not a trace file"))); err == nil {
		t.Fatal("expected magic error")
	}
	if _, err := Read(bytes.NewReader(nil)); err == nil {
		t.Fatal("expected EOF error")
	}
}

func TestReadRejectsTruncated(t *testing.T) {
	recs := []Rec{{PC: 1, Addr: 64}, {PC: 2, Addr: 128}}
	var buf bytes.Buffer
	if err := Write(&buf, recs); err != nil {
		t.Fatal(err)
	}
	cut := buf.Bytes()[:buf.Len()-1]
	if _, err := Read(bytes.NewReader(cut)); err == nil {
		t.Fatal("expected truncation error")
	}
}

func TestEmptyTrace(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, nil); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("empty trace read %d records", len(got))
	}
}

func TestZigzag(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 1 << 40, -(1 << 40), -9e18} {
		if unzigzag(zigzag(v)) != v {
			t.Fatalf("zigzag round trip failed for %d", v)
		}
	}
}

func TestCompression(t *testing.T) {
	// Sequential records should delta-encode very compactly.
	recs := make([]Rec, 10000)
	for i := range recs {
		recs[i] = Rec{PC: 0x400000, Addr: uint64(0x10000000 + i*64), Gap: 3}
	}
	var buf bytes.Buffer
	if err := Write(&buf, recs); err != nil {
		t.Fatal(err)
	}
	if perRec := buf.Len() / len(recs); perRec > 6 {
		t.Fatalf("sequential trace uses %d bytes/record; expected tight delta coding", perRec)
	}
}

// header returns a binary trace's magic and record count, with no records.
func header(n uint64) []byte {
	b := append([]byte(nil), magic[:]...)
	return binary.AppendUvarint(b, n)
}

// A header's record count is untrusted: a file claiming the maximum 2^30
// records but holding none must fail after allocating little, not reserve
// room for every claimed record up front.
func TestReadHugeCountAllocatesLittle(t *testing.T) {
	data := header(1 << 30)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	recs, err := Read(bytes.NewReader(data))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatalf("a count with no records behind it was accepted (%d records)", len(recs))
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Errorf("Read allocated %d bytes for a record-less file claiming 2^30 records", got)
	}
}

// A flags varint carries the gap above its write bit; a gap that does not
// fit Rec.Gap is an error, not a silently truncated record.
func TestReadRejectsGapOverflow(t *testing.T) {
	for _, tc := range []struct {
		gap uint64
		ok  bool
	}{
		{math.MaxUint32, true},
		{math.MaxUint32 + 1, false},
		{1 << 62, false},
	} {
		data := header(1)
		data = binary.AppendUvarint(data, 0)         // pc delta
		data = binary.AppendUvarint(data, 0)         // addr delta
		data = binary.AppendUvarint(data, tc.gap<<1) // flags
		recs, err := Read(bytes.NewReader(data))
		if tc.ok {
			if err != nil || len(recs) != 1 || uint64(recs[0].Gap) != tc.gap {
				t.Errorf("gap %d: got %+v, %v", tc.gap, recs, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("gap %d accepted as %+v", tc.gap, recs)
		} else if !strings.Contains(err.Error(), "gap") {
			t.Errorf("gap %d: error %q does not name the gap", tc.gap, err)
		}
	}
}

// The record count says where a trace ends: a byte after the counted
// records is an error, not ignored. Otherwise a count damaged to a smaller
// value would read as a shorter trace that looks valid.
func TestReadRejectsTrailingBytes(t *testing.T) {
	recs := []Rec{{PC: 1, Addr: 64}, {PC: 2, Addr: 128, Write: true, Gap: 3}}
	var buf bytes.Buffer
	if err := Write(&buf, recs); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("the writer's own bytes: %v", err)
	}
	extra := append(append([]byte(nil), buf.Bytes()...), 0)
	if got, err := Read(bytes.NewReader(extra)); err == nil {
		t.Errorf("a trailing byte was accepted as %+v", got)
	}
	shrunk := append(header(1), buf.Bytes()[len(header(2)):]...) // count 2 damaged to 1
	if got, err := Read(bytes.NewReader(shrunk)); err == nil {
		t.Errorf("a count smaller than the records behind it read as %+v", got)
	}
}

// Write emits every varint in its fewest bytes, so a longer encoding of
// the same value — in the count or in any record field — is an error.
func TestReadRejectsOverlongVarint(t *testing.T) {
	zero2 := []byte{0x80, 0x00}      // 0 in two bytes
	one3 := []byte{0x81, 0x80, 0x00} // 1 in three bytes
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"count", append(append([]byte(nil), magic[:]...), zero2...)},
		{"pc", append(append(header(1), one3...), 0, 0)},
		{"addr", append(append(append(header(1), 0), zero2...), 0)},
		{"flags", append(append(header(1), 0, 0), one3...)},
	} {
		if got, err := Read(bytes.NewReader(tc.data)); err == nil {
			t.Errorf("%s: overlong varint accepted as %+v", tc.name, got)
		} else if !errors.Is(err, errOverlong) {
			t.Errorf("%s: error %v, want %v", tc.name, err, errOverlong)
		}
	}
	// The same values in their fewest bytes read fine.
	if got, err := Read(bytes.NewReader(append(header(1), 1, 0, 1))); err != nil || len(got) != 1 {
		t.Errorf("minimal varints: %+v, %v", got, err)
	}
}
