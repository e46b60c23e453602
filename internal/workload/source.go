package workload

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"drishti/internal/trace"
)

// Source optionally overrides how one core of a mix produces its access
// stream. The zero value keeps the core on Models[c]; at most one field
// may be set. Scenario specs (internal/scenario) compile phase schedules
// and trace replay into sources, so heterogeneous "production" mixes flow
// through the same Mix type — and the same content-address chain — as the
// paper's model-only mixes.
type Source struct {
	// Phased runs a phase-changing schedule (PhasedGenerator) seeded
	// with the core's mix seed.
	Phased *PhasedModel
	// Trace replays a recorded stream. Finite streams loop: Feed and
	// Stream both Reset an exhausted reader and read on.
	Trace *TraceData
}

func (s Source) active() bool { return s.Phased != nil || s.Trace != nil }

// TraceData is a replayed record stream with a stable identity, so
// trace-backed mixes participate in memo caches and the durable store.
type TraceData struct {
	Name string
	Recs []trace.Rec
}

// Key returns a stable identity string for the trace: its name, length,
// and an FNV-1a digest over every record's fields. Two traces with equal
// keys replay the same stream.
func (t *TraceData) Key() string {
	h := fnv.New64a()
	var buf [21]byte
	for _, r := range t.Recs {
		binary.LittleEndian.PutUint64(buf[0:8], r.PC)
		binary.LittleEndian.PutUint64(buf[8:16], r.Addr)
		binary.LittleEndian.PutUint32(buf[16:20], r.Gap)
		buf[20] = 0
		if r.Write {
			buf[20] = 1
		}
		h.Write(buf[:])
	}
	return fmt.Sprintf("trace=%s|n=%d|h=%016x", t.Name, len(t.Recs), h.Sum64())
}

// sourceAt returns core c's source override (the zero Source when the
// mix has none).
func (m Mix) sourceAt(c int) Source {
	if c < len(m.Sources) {
		return m.Sources[c]
	}
	return Source{}
}

// NewReader builds core c's record stream for the mix: the core's Source
// override when one is set, otherwise a model generator. It is the single
// construction point the simulator uses (plain, alone, and batched runs),
// so source-bearing mixes behave identically on every execution path.
func NewReader(m Mix, c int) (trace.Reader, error) {
	if c < 0 || c >= len(m.Models) {
		return nil, fmt.Errorf("workload: mix %s has no core %d", m.Name, c)
	}
	var seed uint64
	if c < len(m.Seeds) {
		seed = m.Seeds[c]
	}
	switch src := m.sourceAt(c); {
	case src.Phased != nil && src.Trace != nil:
		return nil, fmt.Errorf("workload: mix %s core %d sets both phased and trace sources", m.Name, c)
	case src.Phased != nil:
		return NewPhasedGenerator(*src.Phased, seed)
	case src.Trace != nil:
		if len(src.Trace.Recs) == 0 {
			return nil, fmt.Errorf("workload: mix %s core %d replays an empty trace %q", m.Name, c, src.Trace.Name)
		}
		return trace.NewSliceReader(src.Trace.Recs), nil
	default:
		return NewGenerator(m.Models[c], seed)
	}
}

// ForkReader checkpoints a reader built by NewReader: the fork and the
// original emit identical future streams and never affect each other. It
// has no simulation caller today; it is kept, with the generators' Fork
// methods, as the stream checkpoint for the planned warm-state
// checkpoint/fork of simulator state (ROADMAP.md).
func ForkReader(r trace.Reader) (trace.Reader, error) {
	switch g := r.(type) {
	case *Generator:
		return g.Fork(), nil
	case *PhasedGenerator:
		return g.Fork(), nil
	case *trace.SliceReader:
		return g.Fork(), nil
	}
	return nil, fmt.Errorf("workload: cannot fork reader of type %T", r)
}
