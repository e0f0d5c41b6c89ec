package core

import (
	"fmt"

	"smartsouth/internal/openflow"
)

// SmartCounter is the paper's §3.3 construction: a small counter stored
// *in the switch* that the pipeline itself can read and update — something
// plain OpenFlow statistics counters cannot do. It is a SELECT group with
// round-robin bucket selection: bucket j's only action writes the constant
// j into a designated packet field, so applying the group performs
// fetch-and-increment — the pre-increment value lands in the field, where
// subsequent flow tables can match it. The counter wraps at its modulus.
type SmartCounter struct {
	Switch  int
	GroupID uint32
	// Field receives the fetched (pre-increment) value.
	Field openflow.Field
	// Modulus is the number of buckets; values run 0..Modulus-1.
	Modulus int
}

// CompileSmartCounter builds one smart counter into a program. Applying
// openflow.Group{ID: sc.GroupID} anywhere in the pipeline is the
// fetch-and-increment. numPorts records the switch's port count for the
// pre-install static check.
func CompileSmartCounter(p *Program, sw, numPorts int, groupID uint32, field openflow.Field, modulus int) (*SmartCounter, error) {
	if modulus < 2 {
		return nil, fmt.Errorf("core: smart counter modulus must be >= 2, got %d", modulus)
	}
	if max := int(field.Max()); modulus-1 > max {
		return nil, fmt.Errorf("core: modulus %d does not fit field %s", modulus, field)
	}
	sc := &SmartCounter{Switch: sw, GroupID: groupID, Field: field, Modulus: modulus}
	p.Ensure(sw, numPorts)
	p.AddGroup(sw, sc.groupEntry())
	return sc, nil
}

// groupEntry builds the counter's round-robin SELECT group: bucket j
// writes j into the field.
func (sc *SmartCounter) groupEntry() *openflow.GroupEntry {
	buckets := make([]openflow.Bucket, sc.Modulus)
	for j := 0; j < sc.Modulus; j++ {
		buckets[j] = openflow.Bucket{Actions: []openflow.Action{
			openflow.SetField{F: sc.Field, Value: uint64(j)},
		}}
	}
	return &openflow.GroupEntry{ID: sc.GroupID, Type: openflow.GroupSelectRR, Buckets: buckets}
}
