package core

import (
	"fmt"

	"smartsouth/internal/network"
	"smartsouth/internal/openflow"
	"smartsouth/internal/topo"
)

// Snapshot implements §3.1: an in-band topology snapshot. The trigger
// packet performs the SmartSouth DFS while pushing label records of every
// node and link it discovers; the root finally punts the packet — records
// and all — to the requester. Unlike out-of-band discovery, it needs
// connectivity to only one switch and no knowledge of the topology.
//
// Record scheme (each record is one 32-bit pushed label):
//
//	NODE(j, q)   pushed on first visit of j via its port q: "a new node j,
//	             reached by the last OUT edge, entered at port q". The
//	             root pushes NODE(root, 0) when the traversal starts.
//	OUT(k)       pushed just before leaving the current node via port k.
//	BOUNCE(j, q) pushed when a probe reaches an already-visited node j on
//	             a port q it has not probed itself yet: records the far
//	             end of a non-tree edge.
//	UP           pushed when returning to the DFS parent.
//
// When a probe arrives on a port the receiver has already probed itself
// (in < cur, or cur = par), the receiver *pops* the sender's OUT record
// instead of pushing — the edge was recorded when the receiver probed it —
// so every edge is recorded exactly once. This is the paper's split of
// Visit_not_from_cur.
type Snapshot struct {
	G    *topo.Graph
	L    *Layout
	Tmpl *Template
	Prog *Program
	ctl  ControlPlane
	be   Backend
}

// Record types (top 4 bits of the label).
const (
	recNode   = 1
	recOut    = 2
	recBounce = 3
	recUp     = 4
)

// encRec packs a record into a 32-bit label: 4 bits type, 14 bits node,
// 14 bits port. Networks up to 16384 nodes/ports fit, far beyond the
// paper's "few hundred nodes".
func encRec(typ, node, port int) uint32 {
	return uint32(typ)<<28 | uint32(node&0x3FFF)<<14 | uint32(port&0x3FFF)
}

func decRec(label uint32) (typ, node, port int) {
	return int(label >> 28), int(label >> 14 & 0x3FFF), int(label & 0x3FFF)
}

// InstallSnapshot compiles and installs the snapshot service, reporting
// to the controller channel.
func InstallSnapshot(c ControlPlane, g *topo.Graph, slot int, opts ...InstallOption) (*Snapshot, error) {
	return installSnapshot(c, g, slot, openflow.PortController, opts)
}

// InstallSnapshotLocal is InstallSnapshot with the completion report
// delivered to the root switch's local port instead of the controller
// channel — the paper's remark that "all out-of-band messages can be sent
// in-band to any server connected to the first node of the traversal,
// thereby allowing complete in-band monitoring". Capture the report via
// Network.OnSelf and decode its labels with DecodeRecords.
//
//simlint:testapi reproduces the paper's remark that reports can go fully in-band; the facade sends them out of band
func InstallSnapshotLocal(c ControlPlane, g *topo.Graph, slot int, opts ...InstallOption) (*Snapshot, error) {
	return installSnapshot(c, g, slot, openflow.PortSelf, opts)
}

func installSnapshot(c ControlPlane, g *topo.Graph, slot, reportPort int, opts []InstallOption) (*Snapshot, error) {
	cfg := resolveInstall(opts)
	l := cfg.Backend.NewLayout(g)
	s := &Snapshot{G: g, L: l, ctl: c, be: cfg.Backend}
	s.Tmpl = snapshotTemplate(g, l, slot, reportPort)
	p := newProgram("snapshot", slot, g, l)
	if err := cfg.Backend.Lower(s.Tmpl, p); err != nil {
		return nil, err
	}
	if err := installProgram(c, p); err != nil {
		return nil, err
	}
	s.Prog = p
	return s, nil
}

func (s *Snapshot) Identity() (*Program, *Layout, []uint16) {
	return s.Prog, s.L, []uint16{EthSnapshot}
}

// snapshotTemplate is the snapshot service as a template. SendNext runs
// once per advance bucket — O(Δ³) times per node — so the records that do
// not name the node are built here, once, and the hooks hand out the same
// list every time (the compiler copies what it keeps).
func snapshotTemplate(g *topo.Graph, l *Layout, slot, reportPort int) *Template {
	t0, tFin, gb := Slot(slot)
	outRec := make([][]openflow.Action, g.MaxDegree()+1)
	for k := range outRec {
		outRec[k] = []openflow.Action{openflow.PushLabel{Value: encRec(recOut, 0, k)}}
	}
	upRec := []openflow.Action{openflow.PushLabel{Value: encRec(recUp, 0, 0)}}
	popOut := []Variant{{Do: []openflow.Action{openflow.PopLabel{}}}}
	return &Template{
		G: g, L: l, Eth: EthSnapshot, T0: t0, TFin: tFin, GroupBase: gb,
		Hooks: Hooks{
			RootStart: func(node int) []openflow.Action {
				return []openflow.Action{openflow.PushLabel{Value: encRec(recNode, node, 0)}}
			},
			FirstVisit: func(node, in int) []Variant {
				return []Variant{{Do: []openflow.Action{
					openflow.PushLabel{Value: encRec(recNode, node, in)}}}}
			},
			BounceSplit: true,
			BounceSeen: func(node, in int) []Variant {
				return popOut
			},
			BounceNew: func(node, in int) []Variant {
				return []Variant{{Do: []openflow.Action{
					openflow.PushLabel{Value: encRec(recBounce, node, in)}}}}
			},
			SendNext: func(node, s, par, out int) []openflow.Action {
				return outRec[out]
			},
			SendParent: func(node, par int) []openflow.Action {
				return upRec
			},
			Finish: func(int) []openflow.Action {
				return []openflow.Action{openflow.Output{Port: reportPort}}
			},
		},
	}
}

// Trigger requests a snapshot by injecting the trigger packet at switch
// root — the single O(1) out-of-band request message of Table 2.
func (s *Snapshot) Trigger(root int, at network.Time) {
	resetStateful(s.ctl, s.be, s.Prog)
	s.ctl.PacketOut(root, openflow.PortController, s.L.NewPacket(s.Tmpl.Eth), at)
}

// Result is a decoded snapshot.
type Result struct {
	Nodes map[int]bool
	Edges []topo.Edge
}

// HasEdge reports whether the snapshot contains the link u-v.
func (r *Result) HasEdge(u, v int) bool {
	for _, e := range r.Edges {
		if (e.U == u && e.V == v) || (e.U == v && e.V == u) {
			return true
		}
	}
	return false
}

// Collect scans the controller inbox for the completed snapshot packet
// and decodes it. It returns nil if no report has arrived (e.g. the
// network has not been run yet, or the trigger was lost).
func (s *Snapshot) Collect() (*Result, error) {
	for _, pi := range s.ctl.Inbox() {
		if pi.Pkt.EthType == s.Tmpl.Eth {
			return DecodeRecords(pi.Pkt.Labels)
		}
	}
	return nil, nil
}

// DecodeRecords replays a record trace into the discovered topology. The
// requester runs this; it is ordinary (control-plane) Go code. A trace of
// L records describes at most L/2 edges and node ids fit in 14 bits, so
// the decoder sizes its containers up front and keys edge dedup by the
// packed node pair — decoding allocates a fixed handful of containers
// however long the trace is (it runs once per monitoring round, directly
// after every sweep).
func DecodeRecords(labels []uint32) (*Result, error) {
	maxNode := 0
	for _, lab := range labels {
		if node := int(lab >> 14 & 0x3FFF); node > maxNode {
			maxNode = node
		}
	}
	res := &Result{
		Nodes: make(map[int]bool, maxNode+1),
		Edges: make([]topo.Edge, 0, len(labels)/2),
	}
	seen := make(map[uint32]struct{}, len(labels)/2)
	addEdge := func(u, pu, v, pv int) {
		k := uint32(u)<<14 | uint32(v)
		if v < u {
			k = uint32(v)<<14 | uint32(u)
		}
		if _, dup := seen[k]; !dup {
			seen[k] = struct{}{}
			res.Edges = append(res.Edges, topo.Edge{U: u, PU: pu, V: v, PV: pv})
		}
	}

	pos, lastOut := -1, 0
	parent := make([]int32, maxNode+1) // 1+parent id; 0 = unknown
	for idx, lab := range labels {
		typ, node, port := decRec(lab)
		switch typ {
		case recNode:
			res.Nodes[node] = true
			if pos == -1 {
				// The root record.
				pos = node
				continue
			}
			addEdge(pos, lastOut, node, port)
			parent[node] = int32(pos) + 1
			pos = node
		case recOut:
			lastOut = port
		case recBounce:
			res.Nodes[node] = true
			addEdge(pos, lastOut, node, port)
		case recUp:
			p := -1
			if pos >= 0 {
				p = int(parent[pos]) - 1
			}
			if p < 0 {
				return nil, fmt.Errorf("core: record %d: UP at root or unknown parent of %d", idx, pos)
			}
			pos = p
		default:
			return nil, fmt.Errorf("core: record %d: unknown type %d", idx, typ)
		}
	}
	return res, nil
}
