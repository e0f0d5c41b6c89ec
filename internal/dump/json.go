package dump

import (
	"encoding/json"
	"fmt"

	"smartsouth/internal/openflow"
)

// The JSON program encoding makes compiled programs a durable artifact:
// a controller can dump what it compiled, and offline tools (cmd/oflint)
// can analyze a deployment without running a controller. The encoding is
// a direct transliteration of the Program IR; actions are a tagged union
// on "op" so the set stays extensible without format versioning.

type programJSON struct {
	Service   string              `json:"service"`
	Slot      int                 `json:"slot"`
	Slots     int                 `json:"slots"`
	TagBytes  int                 `json:"tag_bytes,omitempty"`
	Transient bool                `json:"transient,omitempty"`
	Switches  []switchProgramJSON `json:"switches"`
}

type switchProgramJSON struct {
	Switch   int              `json:"switch"`
	NumPorts int              `json:"num_ports"`
	Flows    []flowRuleJSON   `json:"flows,omitempty"`
	States   []stateTableJSON `json:"state_tables,omitempty"`
	Groups   []groupJSON      `json:"groups,omitempty"`
}

// stateTableJSON carries one stateful stage: the table ID, the flow-key
// fields, and the EFSM transition entries.
type stateTableJSON struct {
	Table   int              `json:"table"`
	Key     []fieldJSON      `json:"key,omitempty"`
	Entries []stateEntryJSON `json:"entries"`
}

type stateEntryJSON struct {
	Priority  int          `json:"priority"`
	AnyState  bool         `json:"any_state,omitempty"`
	State     uint64       `json:"state,omitempty"`
	StateMask uint64       `json:"state_mask,omitempty"`
	Match     matchJSON    `json:"match"`
	Actions   []actionJSON `json:"actions,omitempty"`
	SetState  *uint64      `json:"set_state,omitempty"`
	Goto      *int         `json:"goto,omitempty"`
	Cookie    string       `json:"cookie,omitempty"`
}

type flowRuleJSON struct {
	Table    int          `json:"table"`
	Priority int          `json:"priority"`
	Match    matchJSON    `json:"match"`
	Actions  []actionJSON `json:"actions,omitempty"`
	// Goto is a pointer so a hand-written rule that omits it decodes as
	// NoGoto rather than as "goto table 0".
	Goto   *int   `json:"goto,omitempty"`
	Cookie string `json:"cookie,omitempty"`
}

// matchJSON keeps the IR's wildcard convention: -1 means "any" for
// in_port, eth_type and ttl.
type matchJSON struct {
	InPort  int              `json:"in_port"`
	EthType int              `json:"eth_type"`
	TTL     int              `json:"ttl"`
	Fields  []fieldMatchJSON `json:"fields,omitempty"`
}

type fieldMatchJSON struct {
	Field fieldJSON `json:"field"`
	Value uint64    `json:"value"`
	Mask  uint64    `json:"mask,omitempty"`
}

type fieldJSON struct {
	Name string `json:"name,omitempty"`
	Off  int    `json:"off"`
	Bits int    `json:"bits"`
}

type groupJSON struct {
	ID      uint32       `json:"id"`
	Type    string       `json:"type"`
	Buckets []bucketJSON `json:"buckets"`
}

type bucketJSON struct {
	WatchPort int          `json:"watch_port,omitempty"`
	Actions   []actionJSON `json:"actions,omitempty"`
}

// actionJSON is the tagged union over openflow.Action implementations.
// Exactly one op per object; fields beyond the op's own are rejected by
// decodeAction to catch hand-written typos.
type actionJSON struct {
	Op    string     `json:"op"`
	Port  *int       `json:"port,omitempty"`  // output
	Field *fieldJSON `json:"field,omitempty"` // set_field
	Value *uint64    `json:"value,omitempty"` // set_field
	Label *uint32    `json:"label,omitempty"` // push_label
	ID    *uint32    `json:"id,omitempty"`    // group
}

func encodeField(f openflow.Field) fieldJSON {
	return fieldJSON{Name: f.Name, Off: f.Off, Bits: f.Bits}
}

func decodeField(fj fieldJSON) openflow.Field {
	return openflow.Field{Name: fj.Name, Off: fj.Off, Bits: fj.Bits}
}

func encodeAction(a openflow.Action) (actionJSON, error) {
	switch ac := a.(type) {
	case openflow.Output:
		p := ac.Port
		return actionJSON{Op: "output", Port: &p}, nil
	case openflow.SetField:
		f, v := encodeField(ac.F), ac.Value
		return actionJSON{Op: "set_field", Field: &f, Value: &v}, nil
	case openflow.PushLabel:
		l := ac.Value
		return actionJSON{Op: "push_label", Label: &l}, nil
	case openflow.PopLabel:
		return actionJSON{Op: "pop_label"}, nil
	case openflow.DecTTL:
		return actionJSON{Op: "dec_ttl"}, nil
	case openflow.Group:
		id := ac.ID
		return actionJSON{Op: "group", ID: &id}, nil
	}
	return actionJSON{}, fmt.Errorf("dump: unencodable action %T", a)
}

func decodeAction(aj actionJSON) (openflow.Action, error) {
	switch aj.Op {
	case "output":
		if aj.Port == nil {
			return nil, fmt.Errorf("dump: output action without port")
		}
		return openflow.Output{Port: *aj.Port}, nil
	case "set_field":
		if aj.Field == nil || aj.Value == nil {
			return nil, fmt.Errorf("dump: set_field action without field or value")
		}
		return openflow.SetField{F: decodeField(*aj.Field), Value: *aj.Value}, nil
	case "push_label":
		if aj.Label == nil {
			return nil, fmt.Errorf("dump: push_label action without label")
		}
		return openflow.PushLabel{Value: *aj.Label}, nil
	case "pop_label":
		return openflow.PopLabel{}, nil
	case "dec_ttl":
		return openflow.DecTTL{}, nil
	case "group":
		if aj.ID == nil {
			return nil, fmt.Errorf("dump: group action without id")
		}
		return openflow.Group{ID: *aj.ID}, nil
	}
	return nil, fmt.Errorf("dump: unknown action op %q", aj.Op)
}

func encodeActions(as []openflow.Action) ([]actionJSON, error) {
	out := make([]actionJSON, 0, len(as))
	for _, a := range as {
		aj, err := encodeAction(a)
		if err != nil {
			return nil, err
		}
		out = append(out, aj)
	}
	return out, nil
}

func decodeActions(ajs []actionJSON) ([]openflow.Action, error) {
	if len(ajs) == 0 {
		return nil, nil
	}
	out := make([]openflow.Action, 0, len(ajs))
	for _, aj := range ajs {
		a, err := decodeAction(aj)
		if err != nil {
			return nil, err
		}
		out = append(out, a)
	}
	return out, nil
}

func groupTypeName(t openflow.GroupType) string { return t.String() }

func groupTypeFromName(s string) (openflow.GroupType, error) {
	for _, t := range []openflow.GroupType{
		openflow.GroupAll, openflow.GroupIndirect, openflow.GroupFF, openflow.GroupSelectRR,
	} {
		if t.String() == s {
			return t, nil
		}
	}
	return 0, fmt.Errorf("dump: unknown group type %q", s)
}

// MarshalPrograms encodes a whole deployment — the retained programs of
// a control plane — as one JSON document.
func MarshalPrograms(progs []*openflow.Program) ([]byte, error) {
	pjs := make([]programJSON, 0, len(progs))
	for _, p := range progs {
		pj, err := encodeProgram(p)
		if err != nil {
			return nil, err
		}
		pjs = append(pjs, pj)
	}
	return json.MarshalIndent(pjs, "", "  ")
}

// UnmarshalPrograms decodes a deployment document. It accepts either a
// JSON array of programs or a single program object, so per-service and
// whole-deployment dumps load the same way.
func UnmarshalPrograms(data []byte) ([]*openflow.Program, error) {
	var pjs []programJSON
	if err := json.Unmarshal(data, &pjs); err != nil {
		var pj programJSON
		if err2 := json.Unmarshal(data, &pj); err2 != nil {
			return nil, err
		}
		pjs = []programJSON{pj}
	}
	progs := make([]*openflow.Program, 0, len(pjs))
	for _, pj := range pjs {
		p, err := decodeProgram(pj)
		if err != nil {
			return nil, err
		}
		progs = append(progs, p)
	}
	return progs, nil
}

func encodeProgram(p *openflow.Program) (programJSON, error) {
	pj := programJSON{
		Service: p.Service, Slot: p.Slot, Slots: p.Slots,
		TagBytes: p.TagBytes, Transient: p.Transient,
	}
	for _, id := range p.SwitchIDs() {
		sp := p.At(id)
		spj := switchProgramJSON{Switch: sp.Switch, NumPorts: sp.NumPorts}
		for _, fr := range sp.Flows {
			e := fr.Entry
			acts, err := encodeActions(e.Actions)
			if err != nil {
				return programJSON{}, err
			}
			fields := make([]fieldMatchJSON, 0, len(e.Match.Fields))
			for _, fm := range e.Match.Fields {
				fields = append(fields, fieldMatchJSON{
					Field: encodeField(fm.F), Value: fm.Value, Mask: fm.Mask,
				})
			}
			gt := e.Goto
			spj.Flows = append(spj.Flows, flowRuleJSON{
				Table: fr.Table, Priority: e.Priority,
				Match: matchJSON{
					InPort: e.Match.InPort, EthType: e.Match.EthType,
					TTL: e.Match.TTL, Fields: fields,
				},
				Actions: acts, Goto: &gt, Cookie: e.Cookie,
			})
		}
		for _, ts := range sp.States {
			tj := stateTableJSON{Table: ts.Table}
			for _, kf := range ts.Key {
				tj.Key = append(tj.Key, encodeField(kf))
			}
			for _, e := range ts.Entries {
				acts, err := encodeActions(e.Actions)
				if err != nil {
					return programJSON{}, err
				}
				fields := make([]fieldMatchJSON, 0, len(e.Match.Fields))
				for _, fm := range e.Match.Fields {
					fields = append(fields, fieldMatchJSON{
						Field: encodeField(fm.F), Value: fm.Value, Mask: fm.Mask,
					})
				}
				gt := e.Goto
				tj.Entries = append(tj.Entries, stateEntryJSON{
					Priority: e.Priority, AnyState: e.AnyState,
					State: e.State, StateMask: e.StateMask,
					Match: matchJSON{
						InPort: e.Match.InPort, EthType: e.Match.EthType,
						TTL: e.Match.TTL, Fields: fields,
					},
					Actions: acts, SetState: e.SetState, Goto: &gt, Cookie: e.Cookie,
				})
			}
			spj.States = append(spj.States, tj)
		}
		for _, g := range sp.Groups {
			gj := groupJSON{ID: g.ID, Type: groupTypeName(g.Type)}
			for _, b := range g.Buckets {
				acts, err := encodeActions(b.Actions)
				if err != nil {
					return programJSON{}, err
				}
				gj.Buckets = append(gj.Buckets, bucketJSON{WatchPort: b.WatchPort, Actions: acts})
			}
			spj.Groups = append(spj.Groups, gj)
		}
		pj.Switches = append(pj.Switches, spj)
	}
	return pj, nil
}

func decodeProgram(pj programJSON) (*openflow.Program, error) {
	p := openflow.NewProgram(pj.Service, pj.Slot)
	if pj.Slots != 0 {
		p.Slots = pj.Slots
	}
	p.TagBytes = pj.TagBytes
	p.Transient = pj.Transient
	for _, spj := range pj.Switches {
		p.Ensure(spj.Switch, spj.NumPorts)
		for _, frj := range spj.Flows {
			acts, err := decodeActions(frj.Actions)
			if err != nil {
				return nil, fmt.Errorf("switch %d table %d: %w", spj.Switch, frj.Table, err)
			}
			m := openflow.Match{
				InPort: frj.Match.InPort, EthType: frj.Match.EthType, TTL: frj.Match.TTL,
			}
			for _, fmj := range frj.Match.Fields {
				m.Fields = append(m.Fields, openflow.FieldMatch{
					F: decodeField(fmj.Field), Value: fmj.Value, Mask: fmj.Mask,
				})
			}
			gt := openflow.NoGoto
			if frj.Goto != nil {
				gt = *frj.Goto
			}
			p.AddFlow(spj.Switch, frj.Table, &openflow.FlowEntry{
				Priority: frj.Priority, Match: m, Actions: acts,
				Goto: gt, Cookie: frj.Cookie,
			})
		}
		for _, tj := range spj.States {
			var key []openflow.Field
			for _, kf := range tj.Key {
				key = append(key, decodeField(kf))
			}
			if key != nil {
				p.SetStateKey(spj.Switch, tj.Table, key)
			}
			for _, ej := range tj.Entries {
				acts, err := decodeActions(ej.Actions)
				if err != nil {
					return nil, fmt.Errorf("switch %d state table %d: %w", spj.Switch, tj.Table, err)
				}
				m := openflow.Match{
					InPort: ej.Match.InPort, EthType: ej.Match.EthType, TTL: ej.Match.TTL,
				}
				for _, fmj := range ej.Match.Fields {
					m.Fields = append(m.Fields, openflow.FieldMatch{
						F: decodeField(fmj.Field), Value: fmj.Value, Mask: fmj.Mask,
					})
				}
				gt := openflow.NoGoto
				if ej.Goto != nil {
					gt = *ej.Goto
				}
				var set *uint64
				if ej.SetState != nil {
					v := *ej.SetState
					set = &v
				}
				p.AddState(spj.Switch, tj.Table, &openflow.StateEntry{
					Priority: ej.Priority, AnyState: ej.AnyState,
					State: ej.State, StateMask: ej.StateMask,
					Match: m, Actions: acts, SetState: set, Goto: gt, Cookie: ej.Cookie,
				})
			}
		}
		for _, gj := range spj.Groups {
			gt, err := groupTypeFromName(gj.Type)
			if err != nil {
				return nil, fmt.Errorf("switch %d group %d: %w", spj.Switch, gj.ID, err)
			}
			ge := &openflow.GroupEntry{ID: gj.ID, Type: gt}
			for _, bj := range gj.Buckets {
				acts, err := decodeActions(bj.Actions)
				if err != nil {
					return nil, fmt.Errorf("switch %d group %d: %w", spj.Switch, gj.ID, err)
				}
				ge.Buckets = append(ge.Buckets, openflow.Bucket{WatchPort: bj.WatchPort, Actions: acts})
			}
			p.AddGroup(spj.Switch, ge)
		}
	}
	return p, nil
}
