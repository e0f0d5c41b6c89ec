// Package openflow models the OpenFlow 1.3 data plane: packets with a
// bit-addressable tag area and an MPLS-like label stack, priority-ordered
// flow tables with masked matching, the apply-actions/goto-table pipeline,
// and the group table with ALL, INDIRECT, FAST-FAILOVER and round-robin
// SELECT group types.
//
// The model is deliberately "dumb": it executes whatever match-action rules
// are installed and knows nothing about the SmartSouth services compiled on
// top of it (package core). This mirrors the paper's claim that the data
// plane remains formally verifiable: all behaviour is visible as ordinary
// flow and group entries.
//
//simlint:deterministic
package openflow

import "fmt"

// Field addresses a contiguous bit range inside a packet's tag area, in the
// spirit of an OXM experimenter match field. Offsets are in bits from the
// start of the tag, most-significant bit first within each byte. A Field is
// pure data: allocation of non-overlapping fields is the business of the
// compiler (see package core), not the switch.
type Field struct {
	Name string // diagnostic only; never used for matching
	Off  int    // bit offset into the tag area
	Bits int    // width in bits, 1..64
}

// Valid reports whether the field has a representable width.
func (f Field) Valid() bool { return f.Bits >= 1 && f.Bits <= 64 && f.Off >= 0 }

// End returns the bit offset one past the field.
func (f Field) End() int { return f.Off + f.Bits }

// Max returns the largest value the field can hold.
func (f Field) Max() uint64 {
	if f.Bits >= 64 {
		return ^uint64(0)
	}
	return (1 << uint(f.Bits)) - 1
}

func (f Field) String() string {
	if f.Name != "" {
		return fmt.Sprintf("%s[%d:%d]", f.Name, f.Off, f.End())
	}
	return fmt.Sprintf("tag[%d:%d]", f.Off, f.End())
}

// Load extracts the field value from tag. Bits beyond the end of tag read
// as zero, so a short tag behaves like one padded with zero bytes.
//
// The first branch is the inlinable hot path for narrow fields (every
// field the compiler allocates for DFS state is well under 9 bits): a
// ≤9-bit field spans at most two bytes, read branch-free into a 16-bit
// window. When the field sits in a single byte, last == first duplicates
// that byte into the low half of the window, and the shift (≥8 in that
// case) discards it.
func (f Field) Load(tag []byte) uint64 {
	if first, last := f.Off>>3, (f.Off+f.Bits-1)>>3; f.Bits <= 9 && first >= 0 && last < len(tag) {
		v := uint64(tag[first])<<8 | uint64(tag[last])
		return v >> uint(16-(f.Off+f.Bits-first*8)) & (1<<uint(f.Bits) - 1)
	}
	return f.loadWide(tag)
}

func (f Field) loadWide(tag []byte) uint64 {
	first, last := f.Off>>3, (f.Off+f.Bits-1)>>3
	if f.Bits <= 57 && first >= 0 && last < len(tag) {
		// The spanned bytes (at most 8, since a ≤57-bit field straddles
		// ≤8 byte boundaries) fit a uint64 big-endian read.
		var v uint64
		for i := first; i <= last; i++ {
			v = v<<8 | uint64(tag[i])
		}
		v >>= uint((last+1)*8 - (f.Off + f.Bits))
		return v & (1<<uint(f.Bits) - 1)
	}
	var v uint64
	for i := 0; i < f.Bits; i++ {
		pos := f.Off + i
		byteIdx, bitIdx := pos>>3, 7-uint(pos&7)
		v <<= 1
		if byteIdx < len(tag) && tag[byteIdx]>>(bitIdx)&1 == 1 {
			v |= 1
		}
	}
	return v
}

// Store writes v into the field, truncating v to the field width. Writes
// beyond the end of tag are silently dropped (the switch cannot grow a
// packet); callers size the tag area when the packet is created.
//
// The first branch mirrors Load's: a ≤9-bit field lies inside a two-byte
// window, rewritten under a mask without a branch. When the field sits in
// a single byte the window holds that byte twice and the mask (shifted by
// ≥8) covers the high copy only; the low copy is written back first,
// unchanged, and the high copy over it.
func (f Field) Store(tag []byte, v uint64) {
	if first, last := f.Off>>3, (f.Off+f.Bits-1)>>3; uint(f.Bits-1) < 9 && first >= 0 && last < len(tag) {
		shift := uint(16 - (f.Off + f.Bits - first*8))
		mask := uint16(1<<uint(f.Bits)-1) << shift
		w := uint16(tag[first])<<8 | uint16(tag[last])
		w = w&^mask | uint16(v)<<shift&mask
		tag[last] = byte(w)
		tag[first] = byte(w >> 8)
		return
	}
	f.storeWide(tag, v)
}

func (f Field) storeWide(tag []byte, v uint64) {
	for i := f.Bits - 1; i >= 0; i-- {
		pos := f.Off + i
		byteIdx, bitIdx := pos>>3, 7-uint(pos&7)
		if byteIdx >= len(tag) {
			v >>= 1
			continue
		}
		if v&1 == 1 {
			tag[byteIdx] |= 1 << bitIdx
		} else {
			tag[byteIdx] &^= 1 << bitIdx
		}
		v >>= 1
	}
}

// BitsFor returns the number of bits needed to store values 0..max.
func BitsFor(max uint64) int {
	n := 1
	for max > 1 {
		max >>= 1
		n++
	}
	return n
}
