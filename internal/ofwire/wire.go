// Package ofwire implements the OpenFlow 1.3 wire encoding for the subset
// of the protocol SmartSouth needs: HELLO/ECHO/FEATURES/BARRIER session
// messages, FLOW_MOD and GROUP_MOD for the offline installation stage, and
// PACKET_OUT / PACKET_IN for the runtime stage.
//
// Standard match fields (in_port, eth_type) and actions (output, group,
// push/pop MPLS, set mpls_label, dec ttl) use their OpenFlow 1.3 binary
// layouts. SmartSouth's bit-addressed tag fields ride in experimenter OXM
// TLVs (class 0xFFFF), exactly how a real deployment would carry extended
// match fields; the paper's NoviKit target advertises "full support for
// extended match fields".
//
// Byte order is big-endian network order throughout, per the spec.
package ofwire

import (
	"encoding/binary"
	"fmt"

	"smartsouth/internal/openflow"
)

// Version is the OpenFlow version byte (1.3).
const Version = 0x04

// Message types (ofp_type).
const (
	TypeHello           = 0
	TypeError           = 1
	TypeEchoRequest     = 2
	TypeEchoReply       = 3
	TypeFeaturesRequest = 5
	TypeFeaturesReply   = 6
	TypePacketIn        = 10
	TypePortStatus      = 12
	TypePacketOut       = 13
	TypeFlowMod         = 14
	TypeGroupMod        = 15
	TypeBarrierRequest  = 20
	TypeBarrierReply    = 21
)

// Reserved OpenFlow port numbers used on the wire.
const (
	ofppInPort     = 0xfffffff8
	ofppController = 0xfffffffd
	ofppLocal      = 0xfffffffe
	ofppAny        = 0xffffffff
	// OFPCML_NO_BUFFER: send the complete packet to the controller.
	noBuffer = 0xffff
	// OFP_NO_BUFFER buffer id.
	ofpNoBuffer = 0xffffffff
)

// Header is the 8-byte ofp_header.
type Header struct {
	Version uint8
	Type    uint8
	Length  uint16
	XID     uint32
}

// HeaderLen is the encoded header size.
const HeaderLen = 8

func (h Header) marshal(b []byte) {
	b[0] = h.Version
	b[1] = h.Type
	binary.BigEndian.PutUint16(b[2:], h.Length)
	binary.BigEndian.PutUint32(b[4:], h.XID)
}

// ParseHeader decodes an ofp_header.
func ParseHeader(b []byte) (Header, error) {
	if len(b) < HeaderLen {
		return Header{}, fmt.Errorf("ofwire: short header (%d bytes)", len(b))
	}
	h := Header{
		Version: b[0],
		Type:    b[1],
		Length:  binary.BigEndian.Uint16(b[2:]),
		XID:     binary.BigEndian.Uint32(b[4:]),
	}
	if h.Length < HeaderLen {
		return Header{}, fmt.Errorf("ofwire: header length %d < %d", h.Length, HeaderLen)
	}
	return h, nil
}

// message assembles header+body, fixing up the length.
func message(typ uint8, xid uint32, body []byte) []byte {
	out := make([]byte, HeaderLen+len(body))
	Header{Version: Version, Type: typ, Length: uint16(HeaderLen + len(body)), XID: xid}.marshal(out)
	copy(out[HeaderLen:], body)
	return out
}

// Hello returns an OFPT_HELLO.
func Hello(xid uint32) []byte { return message(TypeHello, xid, nil) }

// EchoReply returns the matching OFPT_ECHO_REPLY.
func EchoReply(xid uint32, payload []byte) []byte {
	return message(TypeEchoReply, xid, payload)
}

// FeaturesRequest returns an OFPT_FEATURES_REQUEST.
func FeaturesRequest(xid uint32) []byte { return message(TypeFeaturesRequest, xid, nil) }

// Features is the decoded OFPT_FEATURES_REPLY body.
type Features struct {
	DatapathID uint64
	NumBuffers uint32
	NumTables  uint8
}

// FeaturesReply encodes an OFPT_FEATURES_REPLY.
func FeaturesReply(xid uint32, f Features) []byte {
	body := make([]byte, 24)
	binary.BigEndian.PutUint64(body[0:], f.DatapathID)
	binary.BigEndian.PutUint32(body[8:], f.NumBuffers)
	body[12] = f.NumTables
	return message(TypeFeaturesReply, xid, body)
}

// ParseFeaturesReply decodes a features-reply body.
func ParseFeaturesReply(body []byte) (Features, error) {
	if len(body) < 24 {
		return Features{}, fmt.Errorf("ofwire: short features reply (%d)", len(body))
	}
	return Features{
		DatapathID: binary.BigEndian.Uint64(body[0:]),
		NumBuffers: binary.BigEndian.Uint32(body[8:]),
		NumTables:  body[12],
	}, nil
}

// BarrierRequest returns an OFPT_BARRIER_REQUEST.
func BarrierRequest(xid uint32) []byte { return message(TypeBarrierRequest, xid, nil) }

// BarrierReply returns an OFPT_BARRIER_REPLY.
func BarrierReply(xid uint32) []byte { return message(TypeBarrierReply, xid, nil) }

// PortStatus is a decoded OFPT_PORT_STATUS: the switch tells the
// controller that a port's liveness changed.
type PortStatus struct {
	Port int
	Up   bool
}

// MarshalPortStatus encodes an OFPT_PORT_STATUS (reason MODIFY, with the
// subset of ofp_port this implementation models: port_no and the
// OFPPS_LINK_DOWN state bit).
func MarshalPortStatus(xid uint32, ps PortStatus) []byte {
	body := make([]byte, 8+16)
	body[0] = 2 // OFPPR_MODIFY
	binary.BigEndian.PutUint32(body[8:], uint32(ps.Port))
	state := uint32(0)
	if !ps.Up {
		state = 1 // OFPPS_LINK_DOWN
	}
	binary.BigEndian.PutUint32(body[20:], state)
	return message(TypePortStatus, xid, body)
}

// ParsePortStatus decodes a port-status body.
func ParsePortStatus(body []byte) (PortStatus, error) {
	if len(body) < 24 {
		return PortStatus{}, fmt.Errorf("ofwire: short port-status (%d bytes)", len(body))
	}
	return PortStatus{
		Port: int(binary.BigEndian.Uint32(body[8:])),
		Up:   binary.BigEndian.Uint32(body[20:])&1 == 0,
	}, nil
}

// Error encodes an OFPT_ERROR with type/code and optional data.
func Error(xid uint32, errType, errCode uint16, data []byte) []byte {
	body := make([]byte, 4+len(data))
	binary.BigEndian.PutUint16(body[0:], errType)
	binary.BigEndian.PutUint16(body[2:], errCode)
	copy(body[4:], data)
	return message(TypeError, xid, body)
}

// ---------------------------------------------------------------------------
// Port number mapping
// ---------------------------------------------------------------------------

func portToWire(p int) uint32 {
	switch p {
	case openflow.PortController:
		return ofppController
	case openflow.PortSelf:
		return ofppLocal
	case openflow.PortInPort:
		return ofppInPort
	case openflow.PortDrop:
		return ofppAny // no standard drop port; OFPP_ANY is never forwarded
	default:
		return uint32(p)
	}
}

func portFromWire(p uint32) int {
	switch p {
	case ofppController:
		return openflow.PortController
	case ofppLocal:
		return openflow.PortSelf
	case ofppInPort:
		return openflow.PortInPort
	case ofppAny:
		return openflow.PortDrop
	default:
		return int(p)
	}
}

func pad8(n int) int { return (n + 7) &^ 7 }
