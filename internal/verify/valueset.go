package verify

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
)

// maxEnum bounds the size of an explicit value set. Restricting Top by a
// masked criterion that leaves more than log2(maxEnum) bits free stays
// Top instead of enumerating — the abstraction over-approximates rather
// than blowing up.
const maxEnum = 64

// ValueSet is the abstract domain for one packet field: either Top
// (every value the field width allows) or a small explicit set of
// values. Tag fields in compiled programs are narrow (node IDs, port
// numbers, small counters), so explicit sets stay tiny in practice and
// the analysis is exact on them; Top only appears for host-controlled
// packets and wide masked matches.
type ValueSet struct {
	top  bool
	vals []uint64 // sorted ascending, unique
}

// Top returns the set of all values.
func Top() ValueSet { return ValueSet{top: true} }

// Singleton returns the set {v}.
func Singleton(v uint64) ValueSet { return ValueSet{vals: []uint64{v}} }

// SetOf returns the set of the given values, deduplicated.
func SetOf(vs ...uint64) ValueSet {
	out := append([]uint64(nil), vs...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	w := 0
	for i, v := range out {
		if i == 0 || v != out[w-1] {
			out[w] = v
			w++
		}
	}
	return ValueSet{vals: out[:w]}
}

// Empty reports whether the set holds no value.
func (s ValueSet) Empty() bool { return !s.top && len(s.vals) == 0 }

// Single returns the sole element, if the set is a singleton.
func (s ValueSet) Single() (uint64, bool) {
	if !s.top && len(s.vals) == 1 {
		return s.vals[0], true
	}
	return 0, false
}

// Contains reports membership. Top contains everything.
func (s ValueSet) Contains(v uint64) bool {
	if s.top {
		return true
	}
	i := sort.Search(len(s.vals), func(i int) bool { return s.vals[i] >= v })
	return i < len(s.vals) && s.vals[i] == v
}

// Values returns the explicit elements (nil for Top).
func (s ValueSet) Values() []uint64 { return s.vals }

// Map applies f to every element. Top maps to Top: the image of an
// unknown value is unknown.
func (s ValueSet) Map(f func(uint64) uint64) ValueSet {
	if s.top {
		return s
	}
	out := make([]uint64, len(s.vals))
	for i, v := range s.vals {
		out[i] = f(v)
	}
	return SetOf(out...)
}

// RestrictMask intersects the set with the criterion v&mask ==
// value&mask over a field whose width mask is widthMask. Restricting
// Top enumerates the satisfying values when few enough bits stay free,
// and soundly stays Top otherwise.
func (s ValueSet) RestrictMask(value, mask, widthMask uint64) ValueSet {
	if mask == 0 {
		return s
	}
	if s.top {
		free := widthMask &^ mask
		if bits.OnesCount64(free) > 6 { // 2^6 == maxEnum
			return s
		}
		base := value & mask
		var vals []uint64
		for sub := uint64(0); ; sub = (sub - free) & free {
			vals = append(vals, base|sub)
			if sub == free {
				break
			}
		}
		return SetOf(vals...)
	}
	var out []uint64
	for _, v := range s.vals {
		if v&mask == value&mask {
			out = append(out, v)
		}
	}
	return ValueSet{vals: out}
}

// RestrictTo intersects the set with {v}.
func (s ValueSet) RestrictTo(v uint64) ValueSet {
	if s.Contains(v) {
		return Singleton(v)
	}
	return ValueSet{}
}

// AllSatisfy reports whether every element satisfies the masked
// criterion. Top satisfies only the trivial (zero-mask) criterion.
func (s ValueSet) AllSatisfy(value, mask uint64) bool {
	if mask == 0 {
		return true
	}
	if s.top {
		return false
	}
	for _, v := range s.vals {
		if v&mask != value&mask {
			return false
		}
	}
	return len(s.vals) > 0
}

// AllEqual reports whether the set is exactly {v}.
func (s ValueSet) AllEqual(v uint64) bool {
	single, ok := s.Single()
	return ok && single == v
}

// Key returns a canonical string for state hashing.
func (s ValueSet) Key() string {
	if s.top {
		return "T"
	}
	parts := make([]string, len(s.vals))
	for i, v := range s.vals {
		parts[i] = fmt.Sprintf("%x", v)
	}
	return strings.Join(parts, ",")
}

func (s ValueSet) String() string {
	if s.top {
		return "⊤"
	}
	return "{" + s.Key() + "}"
}
