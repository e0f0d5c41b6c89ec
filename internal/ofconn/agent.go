package ofconn

import (
	"errors"
	"fmt"
	"io"
	"net"

	"smartsouth/internal/ofwire"
	"smartsouth/internal/openflow"
)

// Agent is the switch side of the control channel: it owns an
// openflow.Switch and applies the controller's messages to it.
//
// The agent's Serve loop is the only goroutine touching the switch while
// it runs; embedders that also drive the data plane (e.g. the simulator)
// must sequence their access, which the OnBarrier hook supports: the
// controller sends a barrier after a batch, the hook fires before the
// reply, and the embedder knows all earlier messages have been applied.
type Agent struct {
	SW *openflow.Switch

	// Inject delivers a PACKET_OUT into the data plane: actions carried
	// by the message (possibly none), plus the in_port hint.
	Inject func(inPort int, actions []openflow.Action, pkt *openflow.Packet)

	// OnBarrier, if set, runs when a BARRIER_REQUEST has been processed,
	// before the reply is sent.
	OnBarrier func()

	conn *Conn
}

// Serve runs the agent message loop on the transport until the peer
// disconnects. It performs the server side of the handshake first.
func (a *Agent) Serve(c net.Conn) error {
	conn := New(c)
	a.conn = conn
	if err := conn.Handshake(); err != nil {
		return err
	}
	for {
		h, body, err := conn.Recv()
		if err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) || errors.Is(err, io.ErrUnexpectedEOF) {
				return nil
			}
			return err
		}
		if err := a.handle(conn, h, body); err != nil {
			// Report the failure to the controller and keep serving; a
			// single malformed message must not kill the channel.
			_ = conn.Send(ofwire.Error(h.XID, 1, 1, nil))
		}
	}
}

func (a *Agent) handle(conn *Conn, h ofwire.Header, body []byte) error {
	switch h.Type {
	case ofwire.TypeEchoRequest:
		return conn.Send(ofwire.EchoReply(h.XID, body))
	case ofwire.TypeFeaturesRequest:
		return conn.Send(ofwire.FeaturesReply(h.XID, ofwire.Features{
			DatapathID: uint64(a.SW.ID),
			NumTables:  255,
		}))
	case ofwire.TypeFlowMod:
		fm, err := ofwire.ParseFlowMod(body)
		if err != nil {
			return err
		}
		a.SW.AddFlow(fm.Table, fm.Entry)
		return nil
	case ofwire.TypeGroupMod:
		g, err := ofwire.ParseGroupMod(body)
		if err != nil {
			return err
		}
		a.SW.AddGroup(g)
		return nil
	case ofwire.TypeBatch:
		subs, err := ofwire.ParseBatch(body)
		if err != nil {
			return err
		}
		// The batch is parsed whole, then applied like a locally
		// materialized program: groups, then the flow-mods per table in one
		// batched add each (Switch.AddFlows) instead of one sorted insert
		// per rule. Nothing is applied if a sub-message fails to parse.
		var flows []openflow.FlowRule
		var groups []*openflow.GroupEntry
		for _, sub := range subs {
			sh, err := ofwire.ParseHeader(sub)
			if err != nil {
				return err
			}
			sb := sub[ofwire.HeaderLen:sh.Length]
			switch sh.Type {
			case ofwire.TypeFlowMod:
				fm, err := ofwire.ParseFlowMod(sb)
				if err != nil {
					return err
				}
				flows = append(flows, openflow.FlowRule{Table: fm.Table, Entry: fm.Entry})
			case ofwire.TypeGroupMod:
				g, err := ofwire.ParseGroupMod(sb)
				if err != nil {
					return err
				}
				groups = append(groups, g)
			default:
				// Only installation messages batch; anything else would
				// need its own reply correlation.
				return fmt.Errorf("ofconn: agent: message type %d not allowed in a batch", sh.Type)
			}
		}
		for _, g := range groups {
			a.SW.AddGroup(g)
		}
		a.SW.AddFlows(flows)
		// A batch is the remote install transaction; recompiling the tables
		// it wrote gives wire-installed programs the same compiled dispatch
		// as local ones.
		a.SW.CompileDispatch()
		return nil
	case ofwire.TypePacketOut:
		po, err := ofwire.ParsePacketOut(body)
		if err != nil {
			return err
		}
		if a.Inject != nil {
			a.Inject(po.InPort, po.Actions, po.Pkt)
		}
		return nil
	case ofwire.TypeMultipartRequest:
		kind, err := ofwire.MultipartKind(body)
		if err != nil {
			return err
		}
		switch kind {
		case ofwire.MultipartGroup:
			gid, err := ofwire.ParseGroupStatsRequest(body)
			if err != nil {
				return err
			}
			hits := a.SW.BucketHits(gid)
			if hits == nil {
				return fmt.Errorf("ofconn: stats for missing group %d", gid)
			}
			return conn.Send(ofwire.MarshalGroupStatsReply(h.XID, ofwire.GroupStats{ID: gid, BucketPackets: hits}))
		case ofwire.MultipartFlow:
			table, err := ofwire.ParseFlowStatsRequest(body)
			if err != nil {
				return err
			}
			var stats []ofwire.FlowStat
			a.SW.Table(table).Each(func(e *openflow.FlowEntry, hits uint64) bool {
				stats = append(stats, ofwire.FlowStat{
					Priority: e.Priority,
					Cookie:   openflow.CookieHash(e.Cookie),
					Packets:  hits,
				})
				return true
			})
			return conn.Send(ofwire.MarshalFlowStatsReply(h.XID, stats))
		default:
			return fmt.Errorf("ofconn: unsupported multipart kind %d", kind)
		}
	case ofwire.TypeBarrierRequest:
		// The barrier closes the transaction of any lone flow-mods before
		// it: compiling their tables here, not per message (a stream of k
		// lone mods would recompile a growing table k times), puts the next
		// packet on the matcher like a batch install does.
		a.SW.CompileDispatch()
		if a.OnBarrier != nil {
			a.OnBarrier()
		}
		return conn.Send(ofwire.BarrierReply(h.XID))
	case ofwire.TypeEchoReply, ofwire.TypeHello:
		return nil // tolerated
	default:
		return fmt.Errorf("ofconn: agent: unsupported message type %d", h.Type)
	}
}

// SendPacketIn pushes a packet-in up the channel; safe to call from any
// goroutine (the Conn serialises writes).
func (a *Agent) SendPacketIn(inPort int, pkt *openflow.Packet) error {
	if a.conn == nil {
		return fmt.Errorf("ofconn: agent not serving")
	}
	return a.conn.Send(ofwire.MarshalPacketIn(a.conn.NextXID(), ofwire.PacketIn{InPort: inPort, Pkt: pkt}))
}

// SendPortStatus notifies the controller of a port liveness change.
func (a *Agent) SendPortStatus(port int, up bool) error {
	if a.conn == nil {
		return fmt.Errorf("ofconn: agent not serving")
	}
	return a.conn.Send(ofwire.MarshalPortStatus(a.conn.NextXID(), ofwire.PortStatus{Port: port, Up: up}))
}
