package openflow

import (
	"testing"
	"testing/quick"
)

func TestFieldLoadStoreRoundTrip(t *testing.T) {
	tag := make([]byte, 8)
	f := Field{Name: "x", Off: 5, Bits: 11}
	for _, v := range []uint64{0, 1, 2, 1023, 2047} {
		f.Store(tag, v)
		if got := f.Load(tag); got != v {
			t.Errorf("roundtrip %d: got %d", v, got)
		}
	}
}

func TestFieldTruncatesToWidth(t *testing.T) {
	tag := make([]byte, 4)
	f := Field{Off: 3, Bits: 4}
	f.Store(tag, 0xFF) // 255 truncates to low 4 bits = 15
	if got := f.Load(tag); got != 15 {
		t.Errorf("got %d, want 15", got)
	}
}

func TestFieldsDoNotInterfere(t *testing.T) {
	tag := make([]byte, 16)
	a := Field{Off: 0, Bits: 7}
	b := Field{Off: 7, Bits: 9}
	c := Field{Off: 16, Bits: 64}
	a.Store(tag, 99)
	b.Store(tag, 300)
	c.Store(tag, 0xDEADBEEFCAFEF00D)
	if a.Load(tag) != 99 || b.Load(tag) != 300 || c.Load(tag) != 0xDEADBEEFCAFEF00D {
		t.Errorf("fields interfered: a=%d b=%d c=%#x", a.Load(tag), b.Load(tag), c.Load(tag))
	}
	// Rewriting b must not disturb its neighbours.
	b.Store(tag, 0)
	if a.Load(tag) != 99 || c.Load(tag) != 0xDEADBEEFCAFEF00D {
		t.Error("rewriting b disturbed a or c")
	}
}

func TestFieldOutOfRangeReadsZeroWritesDropped(t *testing.T) {
	tag := make([]byte, 1)
	f := Field{Off: 4, Bits: 16} // extends past the 8-bit tag
	f.Store(tag, 0xFFFF)
	// Only the first 4 bits fit; the rest must read back as zero.
	if got := f.Load(tag); got != 0xF000 {
		t.Errorf("got %#x, want 0xF000", got)
	}
}

// Property: for random offsets/widths/values, Store followed by Load
// returns the value modulo the field width, and bits outside the field
// never change.
func TestQuickFieldRoundTrip(t *testing.T) {
	check := func(off uint8, bits uint8, v uint64, noise []byte) bool {
		f := Field{Off: int(off % 64), Bits: 1 + int(bits%64)}
		tag := make([]byte, 24)
		copy(tag, noise)
		before := append([]byte(nil), tag...)
		f.Store(tag, v)
		want := v
		if f.Bits < 64 {
			want &= (1 << uint(f.Bits)) - 1
		}
		if f.Load(tag) != want {
			return false
		}
		// Bits outside [Off, End) must be untouched.
		for pos := 0; pos < len(tag)*8; pos++ {
			if pos >= f.Off && pos < f.End() {
				continue
			}
			bi, sh := pos>>3, 7-uint(pos&7)
			if (tag[bi]>>sh)&1 != (before[bi]>>sh)&1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// loadBitwise is the reference extraction the Load fast path must agree
// with: one bit at a time, short tags reading as zero-padded.
func loadBitwise(f Field, tag []byte) uint64 {
	var v uint64
	for i := 0; i < f.Bits; i++ {
		pos := f.Off + i
		bi, sh := pos>>3, 7-uint(pos&7)
		v <<= 1
		if bi < len(tag) && tag[bi]>>sh&1 == 1 {
			v |= 1
		}
	}
	return v
}

// Property: the byte-wise Load fast path agrees with the bit-by-bit
// reference for every offset/width, including fields straddling byte
// boundaries and fields running past the end of a short tag.
func TestQuickFieldLoadMatchesBitwise(t *testing.T) {
	check := func(off uint8, bits uint8, noise []byte, tagLen uint8) bool {
		f := Field{Off: int(off % 80), Bits: 1 + int(bits%64)}
		tag := make([]byte, tagLen%16)
		copy(tag, noise)
		return f.Load(tag) == loadBitwise(f, tag)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestFieldFastPathsMatchBitwise pins Store and Load — fast paths and wide
// paths alike — against the bit-at-a-time reference for every offset and
// every width up to 64, on tags the field fits, straddles the end of, and
// lies wholly beyond.
func TestFieldFastPathsMatchBitwise(t *testing.T) {
	values := []uint64{0, 1, 0x155, 0x0AA, 0xDEADBEEFCAFEF00D, ^uint64(0)}
	for _, tagLen := range []int{0, 1, 2, 3, 12} {
		for off := 0; off < tagLen*8+10; off++ {
			for bits := 1; bits <= 64; bits++ {
				f := Field{Off: off, Bits: bits}
				for _, fill := range []byte{0x00, 0xFF, 0xA5} {
					for _, v := range values {
						got, want := make([]byte, tagLen), make([]byte, tagLen)
						for i := range got {
							got[i], want[i] = fill, fill
						}
						f.Store(got, v)
						f.storeWide(want, v)
						if string(got) != string(want) {
							t.Fatalf("%v.Store(%d-byte tag of %#x, %#x) = %x, bitwise %x", f, tagLen, fill, v, got, want)
						}
						if l, ref := f.Load(got), loadBitwise(f, got); l != ref {
							t.Fatalf("%v.Load(%x) = %#x, bitwise %#x", f, got, l, ref)
						}
					}
				}
			}
		}
	}
}

func TestBitsFor(t *testing.T) {
	cases := []struct {
		max  uint64
		want int
	}{{0, 1}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4}, {255, 8}, {256, 9}}
	for _, c := range cases {
		if got := BitsFor(c.max); got != c.want {
			t.Errorf("BitsFor(%d) = %d, want %d", c.max, got, c.want)
		}
	}
}
