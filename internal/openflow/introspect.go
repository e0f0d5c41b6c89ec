package openflow

// Match and action introspection helpers. The static checkers (package
// verify, package analysis) reason about rules as data: which packets a
// match accepts, whether one match swallows another, which ports and
// groups an action list can reach. Those questions belong next to the
// match/action definitions, so the checkers share one exact semantics
// instead of each re-deriving it.

// AcceptedMask returns the effective mask of the criterion: the bits of
// the field a packet must pin to satisfy it (Mask, or the full field
// width when Mask is zero).
func (m FieldMatch) AcceptedMask() uint64 { return m.mask() }

// SameField reports whether two criteria constrain the same bit range of
// the tag. The diagnostic Name is ignored: matching operates on bits.
func (m FieldMatch) SameField(o FieldMatch) bool {
	return m.F.Off == o.F.Off && m.F.Bits == o.F.Bits
}

// Implies reports whether every field value accepted by m is also
// accepted by o, for criteria on the same bit range. Criteria on
// different bit ranges are incomparable and never imply each other.
func (m FieldMatch) Implies(o FieldMatch) bool {
	if !m.SameField(o) {
		return false
	}
	km, ko := m.mask(), o.mask()
	if ko&^km != 0 {
		return false // o pins a bit m leaves free
	}
	return m.Value&ko == o.Value&ko
}

// CompatibleWith reports whether some field value satisfies both
// criteria. Criteria on different bit ranges are conservatively
// compatible when their bit ranges overlap (the bit-level intersection is
// not computed) and trivially compatible when they are disjoint.
func (m FieldMatch) CompatibleWith(o FieldMatch) bool {
	if !m.SameField(o) {
		return true
	}
	common := m.mask() & o.mask()
	return m.Value&common == o.Value&common
}

// Covers reports whether every packet matching b also matches m — the
// exact shadow relation between two matches. It is complete for criteria
// with identical field geometry; constraints expressed through
// differently-shaped fields over the same bits are conservatively treated
// as not covered.
func (m Match) Covers(b Match) bool {
	if m.InPort != AnyPort && m.InPort != b.InPort {
		return false // b wildcard or different port: some b-packet escapes m
	}
	if m.EthType != AnyEthType && m.EthType != b.EthType {
		return false
	}
	if m.TTL != AnyTTL && m.TTL != b.TTL {
		return false
	}
	for _, fm := range m.Fields {
		if !fm.impliedBy(b.Fields) {
			return false
		}
	}
	return true
}

// impliedBy reports whether some b-side constraint implies fm.
func (fm FieldMatch) impliedBy(bs []FieldMatch) bool {
	for _, fb := range bs {
		if fb.Implies(fm) {
			return true
		}
	}
	return false
}

// Overlaps reports whether some packet can match both m and b. It is
// exact for criteria with identical field geometry; constraints on
// overlapping bit ranges with different geometry are conservatively
// reported as overlapping.
func (m Match) Overlaps(b Match) bool {
	if m.InPort != AnyPort && b.InPort != AnyPort && m.InPort != b.InPort {
		return false
	}
	if m.EthType != AnyEthType && b.EthType != AnyEthType && m.EthType != b.EthType {
		return false
	}
	if m.TTL != AnyTTL && b.TTL != AnyTTL && m.TTL != b.TTL {
		return false
	}
	for _, fm := range m.Fields {
		for _, fb := range b.Fields {
			if !fm.CompatibleWith(fb) {
				return false
			}
		}
	}
	return true
}

// SameFootprint reports whether m and b constrain exactly the same
// dimensions: the same wildcarded/pinned InPort, EthType and TTL status,
// and field criteria over the same bit ranges. Two rules with the same
// footprint differ only in the values they accept — the shape an
// accidental shadow takes, as opposed to a deliberately broader override
// rule that omits criteria.
func (m Match) SameFootprint(b Match) bool {
	if (m.InPort == AnyPort) != (b.InPort == AnyPort) {
		return false
	}
	if (m.EthType == AnyEthType) != (b.EthType == AnyEthType) {
		return false
	}
	if (m.TTL == AnyTTL) != (b.TTL == AnyTTL) {
		return false
	}
	if len(m.Fields) != len(b.Fields) {
		return false
	}
	for _, fm := range m.Fields {
		found := false
		for _, fb := range b.Fields {
			if fm.SameField(fb) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// Equal reports whether the two matches accept exactly the same packets:
// they cover each other.
func (m Match) Equal(b Match) bool { return m.Covers(b) && b.Covers(m) }
