// Package frame defines the over-the-air frame types exchanged by the
// simulated 802.11 MAC and by CO-MAP: data frames, ACKs (plain and
// selective-repeat), the CO-MAP discovery header and location beacons.
// Frames are carried through the simulator as structs; only their on-air
// sizes are modelled.
package frame

import "fmt"

// NodeID identifies a station (client or AP) in the network.
type NodeID uint16

// Broadcast is the all-stations destination.
const Broadcast NodeID = 0xFFFF

// Kind enumerates frame types.
type Kind uint8

// Frame kinds. Values start at 1 so the zero Frame is recognisably invalid.
const (
	// Data carries application payload.
	Data Kind = iota + 1
	// Ack is the plain 802.11 acknowledgement.
	Ack
	// ComapHeader is the small discovery header transmitted immediately
	// before a data frame so neighbors learn (src, dst) of the coming
	// transmission (paper §IV-C1 and §V).
	ComapHeader
	// SRAck is a selective-repeat acknowledgement carrying a cumulative
	// sequence number plus a bitmap of the previous 32 sequence numbers
	// (paper §IV-C4).
	SRAck
	// LocationBeacon announces a node's position to its neighbors
	// (paper §IV-A location exchange).
	LocationBeacon
	// RTS/CTS implement the optional virtual-carrier-sense handshake. The
	// paper disables it in all experiments; this library provides it as a
	// comparison baseline for hidden-terminal mitigation. PayloadBytes on an
	// RTS/CTS carries the announced data payload so bystanders can compute
	// the NAV duration.
	RTS
	CTS
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Data:
		return "DATA"
	case Ack:
		return "ACK"
	case ComapHeader:
		return "HDR"
	case SRAck:
		return "SRACK"
	case LocationBeacon:
		return "LOC"
	case RTS:
		return "RTS"
	case CTS:
		return "CTS"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Frame is one over-the-air MAC frame.
type Frame struct {
	Kind Kind
	Src  NodeID
	Dst  NodeID
	// Seq is the MAC/ARQ sequence number of a data frame, or the
	// acknowledged sequence number of an (SR)ACK.
	Seq uint16
	// PayloadBytes is the application payload length of a data frame.
	PayloadBytes int
	// Retry marks a retransmission.
	Retry bool
	// Bitmap, on an SRAck, reports reception of the 32 sequence numbers
	// preceding Seq: bit i set means Seq-1-i was received.
	Bitmap uint32
	// X, Y carry the reported position (meters) of a LocationBeacon.
	X, Y float64
}

// Frame sizes on the wire, in bytes (matching internal/phy constants).
const (
	macHeaderBytes   = 28 // 24-byte 3-address header + 4-byte FCS
	ackBytes         = 14
	srAckBytes       = 20 // ACK + cumulative seq + 32-bit bitmap
	comapHeaderBytes = 16 // src + dst addresses + own FCS
	locationBytes    = 34 // MAC header-sized beacon carrying two float32s... kept simple
	rtsBytes         = 20
	ctsBytes         = 14
)

// AirBytes returns the frame's on-air size in bytes, the number used for
// airtime computation.
func (f Frame) AirBytes() int {
	switch f.Kind {
	case Data:
		return macHeaderBytes + f.PayloadBytes
	case Ack:
		return ackBytes
	case SRAck:
		return srAckBytes
	case ComapHeader:
		return comapHeaderBytes
	case LocationBeacon:
		return locationBytes
	case RTS:
		return rtsBytes
	case CTS:
		return ctsBytes
	default:
		return macHeaderBytes
	}
}

// IsAck reports whether the frame acknowledges data (plain or selective
// repeat).
func (f Frame) IsAck() bool { return f.Kind == Ack || f.Kind == SRAck }

// String renders a compact human-readable form for traces.
func (f Frame) String() string {
	return fmt.Sprintf("%s %d->%d seq=%d len=%d", f.Kind, f.Src, f.Dst, f.Seq, f.PayloadBytes)
}
