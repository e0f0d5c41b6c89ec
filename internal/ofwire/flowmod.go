package ofwire

import (
	"encoding/binary"
	"fmt"

	"smartsouth/internal/openflow"
)

// Instruction type codes.
const (
	instrGotoTable    = 1
	instrApplyActions = 4
)

// FlowMod couples a decoded flow-mod's table with its entry.
type FlowMod struct {
	Table int
	Entry *openflow.FlowEntry
}

// MarshalFlowMod encodes an OFPT_FLOW_MOD (command ADD) installing e into
// the given table. The human-readable cookie string travels as its FNV-64
// hash (the wire cookie is numeric); decoded entries carry a synthetic
// cookie.
func MarshalFlowMod(xid uint32, table int, e *openflow.FlowEntry) ([]byte, error) {
	body := make([]byte, 40)
	binary.BigEndian.PutUint64(body[0:], openflow.CookieHash(e.Cookie)) // cookie
	// cookie_mask zero.
	body[16] = uint8(table)
	body[17] = 0 // OFPFC_ADD
	binary.BigEndian.PutUint16(body[22:], uint16(e.Priority))
	binary.BigEndian.PutUint32(body[24:], ofpNoBuffer)
	binary.BigEndian.PutUint32(body[28:], ofppAny) // out_port
	binary.BigEndian.PutUint32(body[32:], ofppAny) // out_group

	body = appendMatch(body, e.Match)

	// Instructions: apply-actions (if any) + goto-table (if any).
	if len(e.Actions) > 0 {
		acts, err := encodeActions(e.Actions)
		if err != nil {
			return nil, err
		}
		ih := make([]byte, 8)
		binary.BigEndian.PutUint16(ih[0:], instrApplyActions)
		binary.BigEndian.PutUint16(ih[2:], uint16(8+len(acts)))
		body = append(body, ih...)
		body = append(body, acts...)
	}
	if e.Goto != openflow.NoGoto {
		ih := make([]byte, 8)
		binary.BigEndian.PutUint16(ih[0:], instrGotoTable)
		binary.BigEndian.PutUint16(ih[2:], 8)
		ih[4] = uint8(e.Goto)
		body = append(body, ih...)
	}
	return message(TypeFlowMod, xid, body), nil
}

// ParseFlowMod decodes a flow-mod body (the bytes after the header).
func ParseFlowMod(body []byte) (FlowMod, error) {
	if len(body) < 40 {
		return FlowMod{}, fmt.Errorf("ofwire: short flow-mod (%d bytes)", len(body))
	}
	cookie := binary.BigEndian.Uint64(body[0:])
	table := int(body[16])
	if cmd := body[17]; cmd != 0 {
		return FlowMod{}, fmt.Errorf("ofwire: unsupported flow-mod command %d", cmd)
	}
	e := &openflow.FlowEntry{
		Priority: int(binary.BigEndian.Uint16(body[22:])),
		Goto:     openflow.NoGoto,
		Cookie:   fmt.Sprintf("wire-%016x", cookie),
	}
	rest := body[40:]
	m, consumed, err := parseMatch(rest)
	if err != nil {
		return FlowMod{}, err
	}
	e.Match = m
	rest = rest[consumed:]
	for len(rest) > 0 {
		if len(rest) < 8 {
			return FlowMod{}, fmt.Errorf("ofwire: truncated instruction")
		}
		typ := binary.BigEndian.Uint16(rest[0:])
		ilen := int(binary.BigEndian.Uint16(rest[2:]))
		if ilen < 8 || ilen > len(rest) {
			return FlowMod{}, fmt.Errorf("ofwire: instruction length %d out of range", ilen)
		}
		switch typ {
		case instrGotoTable:
			e.Goto = int(rest[4])
		case instrApplyActions:
			acts, err := parseActions(rest[8:ilen])
			if err != nil {
				return FlowMod{}, err
			}
			e.Actions = acts
		default:
			return FlowMod{}, fmt.Errorf("ofwire: unsupported instruction %d", typ)
		}
		rest = rest[ilen:]
	}
	return FlowMod{Table: table, Entry: e}, nil
}

// MarshalGroupMod encodes an OFPT_GROUP_MOD (command ADD).
func MarshalGroupMod(xid uint32, g *openflow.GroupEntry) ([]byte, error) {
	body := make([]byte, 8)
	// command(2)=ADD, type(1), pad(1), group_id(4)
	var gtype uint8
	switch g.Type {
	case openflow.GroupAll:
		gtype = 0
	case openflow.GroupSelectRR:
		gtype = 1 // OFPGT_SELECT with round-robin policy
	case openflow.GroupIndirect:
		gtype = 2
	case openflow.GroupFF:
		gtype = 3
	default:
		return nil, fmt.Errorf("ofwire: unsupported group type %v", g.Type)
	}
	body[2] = gtype
	binary.BigEndian.PutUint32(body[4:], g.ID)
	for _, b := range g.Buckets {
		acts, err := encodeActions(b.Actions)
		if err != nil {
			return nil, err
		}
		bk := make([]byte, 16)
		binary.BigEndian.PutUint16(bk[0:], uint16(16+len(acts)))
		binary.BigEndian.PutUint16(bk[2:], 1) // weight
		watch := uint32(ofppAny)
		if b.WatchPort != openflow.WatchNone {
			watch = uint32(b.WatchPort)
		}
		binary.BigEndian.PutUint32(bk[4:], watch)
		binary.BigEndian.PutUint32(bk[8:], ofppAny) // watch_group
		body = append(body, bk...)
		body = append(body, acts...)
	}
	return message(TypeGroupMod, xid, body), nil
}

// ParseGroupMod decodes a group-mod body.
func ParseGroupMod(body []byte) (*openflow.GroupEntry, error) {
	if len(body) < 8 {
		return nil, fmt.Errorf("ofwire: short group-mod")
	}
	if cmd := binary.BigEndian.Uint16(body[0:]); cmd != 0 {
		return nil, fmt.Errorf("ofwire: unsupported group-mod command %d", cmd)
	}
	g := &openflow.GroupEntry{ID: binary.BigEndian.Uint32(body[4:])}
	switch body[2] {
	case 0:
		g.Type = openflow.GroupAll
	case 1:
		g.Type = openflow.GroupSelectRR
	case 2:
		g.Type = openflow.GroupIndirect
	case 3:
		g.Type = openflow.GroupFF
	default:
		return nil, fmt.Errorf("ofwire: unknown group type %d", body[2])
	}
	rest := body[8:]
	for len(rest) > 0 {
		if len(rest) < 16 {
			return nil, fmt.Errorf("ofwire: truncated bucket")
		}
		blen := int(binary.BigEndian.Uint16(rest[0:]))
		if blen < 16 || blen > len(rest) {
			return nil, fmt.Errorf("ofwire: bucket length %d out of range", blen)
		}
		watch := binary.BigEndian.Uint32(rest[4:])
		bk := openflow.Bucket{WatchPort: openflow.WatchNone}
		if watch != ofppAny {
			bk.WatchPort = int(watch)
		}
		acts, err := parseActions(rest[16:blen])
		if err != nil {
			return nil, err
		}
		bk.Actions = acts
		g.Buckets = append(g.Buckets, bk)
		rest = rest[blen:]
	}
	return g, nil
}
