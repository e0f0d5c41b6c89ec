package openflow

import "testing"

var fA = Field{Name: "a", Off: 0, Bits: 4}
var fB = Field{Name: "b", Off: 4, Bits: 4}

func TestMatchCovers(t *testing.T) {
	eth := MatchEth(0x8801)
	cases := []struct {
		name string
		a, b Match
		want bool
	}{
		{"wildcard covers everything", MatchAll(), eth.WithInPort(2).WithField(fA, 3), true},
		{"eth covers eth+field", eth, eth.WithField(fA, 3), true},
		{"field value mismatch", eth.WithField(fA, 1), eth.WithField(fA, 2), false},
		{"same constraint", eth.WithField(fA, 2), eth.WithField(fA, 2), true},
		{"pinned port does not cover wildcard", eth.WithInPort(1), eth, false},
		{"masked covers exact", eth.WithMasked(fA, 0b10, 0b10), eth.WithField(fA, 0b11), true},
		{"exact does not cover masked", eth.WithField(fA, 0b11), eth.WithMasked(fA, 0b10, 0b10), false},
		{"ttl pin does not cover wildcard", eth.WithTTL(0), eth, false},
		{"different field not covered", eth.WithField(fA, 1), eth.WithField(fB, 1), false},
		{"different eth", MatchEth(0x8801), MatchEth(0x8802), false},
	}
	for _, c := range cases {
		if got := c.a.Covers(c.b); got != c.want {
			t.Errorf("%s: Covers(%s, %s) = %v, want %v", c.name, c.a, c.b, got, c.want)
		}
	}
}

func TestMatchOverlaps(t *testing.T) {
	eth := MatchEth(0x8801)
	cases := []struct {
		name string
		a, b Match
		want bool
	}{
		{"disjoint field values", eth.WithField(fA, 1), eth.WithField(fA, 2), false},
		{"disjoint ports", eth.WithInPort(1), eth.WithInPort(2), false},
		{"port vs wildcard", eth.WithInPort(1), eth, true},
		{"different fields overlap", eth.WithField(fA, 1), eth.WithField(fB, 2), true},
		{"masked compatible", eth.WithMasked(fA, 0b10, 0b10), eth.WithField(fA, 0b11), true},
		{"masked incompatible", eth.WithMasked(fA, 0b10, 0b10), eth.WithField(fA, 0b01), false},
		{"different eth disjoint", MatchEth(0x8801), MatchEth(0x8802), false},
		{"identical", eth.WithField(fA, 1), eth.WithField(fA, 1), true},
	}
	for _, c := range cases {
		if got := c.a.Overlaps(c.b); got != c.want {
			t.Errorf("%s: Overlaps(%s, %s) = %v, want %v", c.name, c.a, c.b, got, c.want)
		}
		if got := c.b.Overlaps(c.a); got != c.want {
			t.Errorf("%s (sym): Overlaps(%s, %s) = %v, want %v", c.name, c.b, c.a, got, c.want)
		}
	}
}

func TestMatchSameFootprintAndEqual(t *testing.T) {
	eth := MatchEth(0x8801)
	if !eth.WithField(fA, 1).SameFootprint(eth.WithField(fA, 2)) {
		t.Error("same dims, different values: want SameFootprint")
	}
	if eth.SameFootprint(eth.WithField(fA, 1)) {
		t.Error("broader rule: want !SameFootprint")
	}
	if eth.WithInPort(1).SameFootprint(eth) {
		t.Error("pinned vs wildcard port: want !SameFootprint")
	}
	if !eth.WithField(fA, 1).Equal(eth.WithField(fA, 1)) {
		t.Error("identical matches: want Equal")
	}
	if eth.Equal(eth.WithField(fA, 1)) {
		t.Error("broader vs narrower: want !Equal")
	}
}
