package openflow

import (
	"fmt"
	"strings"
)

// AnyPort, AnyEthType and AnyTTL are wildcard values for the corresponding
// Match dimensions.
const (
	AnyPort    = -1
	AnyEthType = -1
	AnyTTL     = -1
)

// FieldMatch matches Value against a masked tag field: the entry matches
// when pkt(F) & Mask == Value & Mask. A zero Mask means an exact match on
// the full field width (the common case), so FieldMatch{F: f, Value: 3}
// reads naturally.
type FieldMatch struct {
	F     Field
	Value uint64
	Mask  uint64
}

func (m FieldMatch) mask() uint64 {
	if m.Mask == 0 {
		return m.F.Max()
	}
	return m.Mask
}

// Matches reports whether the packet satisfies the field criterion.
func (m FieldMatch) Matches(p *Packet) bool {
	k := m.mask()
	return p.Load(m.F)&k == m.Value&k
}

func (m FieldMatch) String() string {
	if m.Mask != 0 && m.Mask != m.F.Max() {
		return fmt.Sprintf("%s&%#x=%d", m.F, m.Mask, m.Value&m.Mask)
	}
	return fmt.Sprintf("%s=%d", m.F, m.Value)
}

// Match is the match part of a flow entry. The zero value matches every
// packet only if InPort, EthType and TTL are set to their Any* wildcards;
// use MatchAll for a true wildcard.
type Match struct {
	InPort  int // AnyPort or a physical port number
	EthType int // AnyEthType or a 16-bit EtherType
	TTL     int // AnyTTL or an exact TTL value (the OFPXMT nw_ttl match)
	Fields  []FieldMatch
}

// MatchAll returns a match with every dimension wildcarded.
func MatchAll() Match {
	return Match{InPort: AnyPort, EthType: AnyEthType, TTL: AnyTTL}
}

// MatchEth returns a match on EtherType only.
func MatchEth(ethType uint16) Match {
	m := MatchAll()
	m.EthType = int(ethType)
	return m
}

// WithInPort returns a copy of m additionally requiring the ingress port.
func (m Match) WithInPort(port int) Match {
	m.Fields = append([]FieldMatch(nil), m.Fields...)
	m.InPort = port
	return m
}

// WithTTL returns a copy of m additionally requiring an exact TTL.
func (m Match) WithTTL(ttl uint8) Match {
	m.Fields = append([]FieldMatch(nil), m.Fields...)
	m.TTL = int(ttl)
	return m
}

// WithField returns a copy of m additionally requiring f == v (full-width
// exact match).
func (m Match) WithField(f Field, v uint64) Match {
	fields := make([]FieldMatch, 0, len(m.Fields)+1)
	fields = append(fields, m.Fields...)
	m.Fields = append(fields, FieldMatch{F: f, Value: v})
	return m
}

// WithMasked returns a copy of m additionally requiring f & mask == v & mask.
//
//simlint:testapi builds masked matches for the matcher, cover and checker tests; the compilers write FieldMatch.Mask directly
func (m Match) WithMasked(f Field, v, mask uint64) Match {
	fields := make([]FieldMatch, 0, len(m.Fields)+1)
	fields = append(fields, m.Fields...)
	m.Fields = append(fields, FieldMatch{F: f, Value: v, Mask: mask})
	return m
}

// Matches reports whether the packet satisfies every criterion of m.
func (m Match) Matches(p *Packet) bool {
	if m.InPort != AnyPort && p.InPort != m.InPort {
		return false
	}
	if m.EthType != AnyEthType && int(p.EthType) != m.EthType {
		return false
	}
	if m.TTL != AnyTTL && int(p.TTL) != m.TTL {
		return false
	}
	for _, fm := range m.Fields {
		if !fm.Matches(p) {
			return false
		}
	}
	return true
}

// NumCriteria returns how many non-wildcard criteria the match carries;
// the synthetic flow-entry size model uses it (see EntryBytes).
func (m Match) NumCriteria() int {
	n := len(m.Fields)
	if m.InPort != AnyPort {
		n++
	}
	if m.EthType != AnyEthType {
		n++
	}
	if m.TTL != AnyTTL {
		n++
	}
	return n
}

func (m Match) String() string {
	var parts []string
	if m.InPort != AnyPort {
		parts = append(parts, fmt.Sprintf("in=%d", m.InPort))
	}
	if m.EthType != AnyEthType {
		parts = append(parts, fmt.Sprintf("eth=%#04x", m.EthType))
	}
	if m.TTL != AnyTTL {
		parts = append(parts, fmt.Sprintf("ttl=%d", m.TTL))
	}
	for _, fm := range m.Fields {
		parts = append(parts, fm.String())
	}
	if len(parts) == 0 {
		return "*"
	}
	return strings.Join(parts, ",")
}
