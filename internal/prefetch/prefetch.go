// Package prefetch implements the hardware prefetchers of the baseline
// system (L1 next-line, L2 IP-stride, Table 4) and the five state-of-the-art
// prefetchers of the Fig 23 sensitivity study (SPP-, Bingo-, IPCP-, and
// Berti-lite), all behind a single training interface.
//
// Prefetch requests carry the PC of the triggering demand load plus a
// prefetch bit, exactly as Section 3.3 describes, so reuse predictors keep
// separate state for prefetched lines.
package prefetch

import (
	"fmt"
	"slices"

	"drishti/internal/mem"
	"drishti/internal/oatable"
)

// Prefetcher observes demand accesses at one cache level and proposes
// prefetch candidates.
type Prefetcher interface {
	// Name identifies the prefetcher for reports.
	Name() string
	// Train observes a demand access and returns byte addresses to
	// prefetch. The returned slice is reused across calls.
	Train(pc, addr uint64, hit bool) []uint64
}

// New builds a prefetcher by name for use at a cache level.
func New(name string, seed uint64) (Prefetcher, error) {
	switch name {
	case "", "none":
		return Nop{}, nil
	case "next-line":
		return NewNextLine(), nil
	case "ip-stride":
		return NewIPStride(), nil
	case "spp":
		return NewSPPLite(), nil
	case "bingo":
		return NewBingoLite(), nil
	case "ipcp":
		return NewIPCPLite(), nil
	case "berti":
		return NewBertiLite(), nil
	case "gaze":
		return NewGazeLite(), nil
	default:
		return nil, Validate(name)
	}
}

// Renew is New building into spare, a prefetcher its caller no longer uses
// (nil for none). An IP-stride spare asked for "ip-stride" keeps its PC
// table, flushed, so it behaves exactly as a fresh one; any other request
// builds a new prefetcher.
func Renew(spare Prefetcher, name string, seed uint64) (Prefetcher, error) {
	if p, ok := spare.(*IPStride); ok && name == "ip-stride" {
		p.table.Clear()
		p.buf = p.buf[:0]
		p.Degree = 2
		return p, nil
	}
	return New(name, seed)
}

// Validate reports whether New accepts name, without building anything.
func Validate(name string) error {
	if name == "" || slices.Contains(Names(), name) {
		return nil
	}
	return fmt.Errorf("prefetch: unknown prefetcher %q", name)
}

// Names lists the available prefetcher names.
func Names() []string {
	return []string{"none", "next-line", "ip-stride", "spp", "bingo", "ipcp", "berti", "gaze"}
}

// Nop never prefetches.
type Nop struct{}

// Name implements Prefetcher.
func (Nop) Name() string { return "none" }

// Train implements Prefetcher.
func (Nop) Train(uint64, uint64, bool) []uint64 { return nil }

// --- next-line ---------------------------------------------------------------

// NextLine prefetches the next sequential block (the baseline L1D
// prefetcher).
type NextLine struct{ buf []uint64 }

// NewNextLine builds a next-line prefetcher.
func NewNextLine() *NextLine { return &NextLine{buf: make([]uint64, 0, 1)} }

// Name implements Prefetcher.
func (p *NextLine) Name() string { return "next-line" }

// Train implements Prefetcher.
func (p *NextLine) Train(_, addr uint64, _ bool) []uint64 {
	p.buf = p.buf[:0]
	p.buf = append(p.buf, mem.BlockBase(addr)+mem.BlockSize)
	return p.buf
}

// --- IP-stride ----------------------------------------------------------------

type ipStrideEntry struct {
	lastBlock uint64
	stride    int64
	conf      uint8
}

// ipStrideLimit bounds the PC table; exceeding it flushes the table, exactly
// as the map-backed implementation rebuilt its map.
const ipStrideLimit = 1 << 14

// IPStride is the classic per-PC stride prefetcher (the baseline L2
// prefetcher): detect a stable block stride per instruction pointer and run
// ahead by a small degree. The PC table is a bounded open-addressing table
// (see oatable) so steady-state training allocates nothing.
type IPStride struct {
	table *oatable.Table[ipStrideEntry]
	buf   []uint64
	// Degree is how many strides ahead to prefetch once confident.
	Degree int
}

// NewIPStride builds an IP-stride prefetcher with degree 2. Its table's
// Get/Insert/Clear/Len behaviour does not depend on how far the table has
// grown, so a flushed table (see Renew) trains exactly as a new one.
func NewIPStride() *IPStride {
	return &IPStride{table: oatable.New[ipStrideEntry](2 * ipStrideLimit), Degree: 2, buf: make([]uint64, 0, 4)}
}

// Name implements Prefetcher.
func (p *IPStride) Name() string { return "ip-stride" }

// Train implements Prefetcher.
func (p *IPStride) Train(pc, addr uint64, _ bool) []uint64 {
	p.buf = p.buf[:0]
	blk := mem.Block(addr)
	e := p.table.Get(pc)
	if e == nil {
		if p.table.Len() > ipStrideLimit {
			p.table.Clear() // cheap capacity bound
		}
		e = p.table.Insert(pc)
		e.lastBlock = blk
		return nil
	}
	stride := int64(blk) - int64(e.lastBlock)
	if stride == e.stride && stride != 0 {
		if e.conf < 3 {
			e.conf++
		}
	} else {
		if e.conf > 0 {
			e.conf--
		} else {
			e.stride = stride
		}
	}
	e.lastBlock = blk
	if e.conf >= 2 && e.stride != 0 {
		for d := 1; d <= p.Degree; d++ {
			nb := int64(blk) + e.stride*int64(d)
			if nb > 0 {
				p.buf = append(p.buf, uint64(nb)<<mem.BlockShift)
			}
		}
	}
	return p.buf
}
