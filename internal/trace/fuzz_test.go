package trace

import (
	"bytes"
	"io"
	"reflect"
	"strings"
	"testing"
)

// The trace readers parse files from outside the process. A parser that
// accepted an input into records its own writer cannot reproduce would be
// reading something other than what the file says. The binary format is
// canonical, so its fuzz property is the strict one: every input yields an
// error or re-encodes to exactly the input bytes. CSV has many spellings
// of one record (header, spacing, hex case), so its property is that the
// records' encoding round-trips byte for byte — decoding the writer's
// bytes gives the same records back, and encoding those gives the same
// bytes.

// fuzzRecs are the seed records: the round-trip vectors of the unit tests.
var fuzzRecs = [][]Rec{
	nil,
	{{PC: 1, Addr: 64}, {PC: 2, Addr: 128, Write: true, Gap: 3}},
	{
		{PC: 0x400000, Addr: 0x10000000, Gap: 3},
		{PC: 0x400004, Addr: 0x10000040, Write: true},
		{PC: 0x400000, Addr: 0x0fff0000, Gap: 1000000},
		{PC: 0xffffffffffff, Addr: 1},
	},
	{{PC: 1, Addr: 2, Gap: 4_000_000_000}},
}

// assertRoundTrip checks recs against their own encoding by enc and dec.
func assertRoundTrip(t *testing.T, recs []Rec, enc func(io.Writer, []Rec) error, dec func(io.Reader) ([]Rec, error)) {
	t.Helper()
	var first bytes.Buffer
	if err := enc(&first, recs); err != nil {
		t.Fatalf("encoding %d accepted records: %v", len(recs), err)
	}
	again, err := dec(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatalf("decoding the writer's own bytes: %v", err)
	}
	if len(again) != len(recs) || (len(recs) > 0 && !reflect.DeepEqual(again, recs)) {
		t.Fatalf("records changed on the round trip:\n got %+v\nwant %+v", again, recs)
	}
	var second bytes.Buffer
	if err := enc(&second, again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("encoding is not byte-stable:\n%q\n%q", first.Bytes(), second.Bytes())
	}
}

func FuzzRead(f *testing.F) {
	for _, recs := range fuzzRecs {
		var buf bytes.Buffer
		if err := Write(&buf, recs); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		f.Add(buf.Bytes()[:buf.Len()-1]) // truncated
	}
	f.Add([]byte("not a trace file"))
	f.Add(header(1 << 30))
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		var again bytes.Buffer
		if err := Write(&again, recs); err != nil {
			t.Fatalf("encoding %d accepted records: %v", len(recs), err)
		}
		if !bytes.Equal(again.Bytes(), data) {
			t.Fatalf("accepted input does not re-encode to itself:\n got %q\nwant %q", again.Bytes(), data)
		}
	})
}

func FuzzReadCSV(f *testing.F) {
	for _, recs := range fuzzRecs {
		var buf bytes.Buffer
		if err := WriteCSV(&buf, recs); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.String())
	}
	for _, s := range []string{
		"",
		"0x1,0x2,0,0\n",
		"pc,addr,write,gap\nnothex,0x2,0,0\n",
		"pc,addr,write,gap\n0x1,0x2,7,0\n",
		"pc,addr,write,gap\n0x1,0x2,0\n",
		"pc,addr,write,gap\n0x1,0x2,0,notanum\n",
		"pc,addr,write,gap\n\n0x1,0x40,1,2\n\n",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data string) {
		recs, err := ReadCSV(strings.NewReader(data))
		if err != nil {
			return
		}
		assertRoundTrip(t, recs, WriteCSV, ReadCSV)
	})
}
