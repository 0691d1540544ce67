// Package network models the paper's communication substrate: a single-hop
// (optionally multi-hop flooded) half-duplex P2P wireless medium between
// mobile hosts, the shared uplink/downlink channels to the mobile support
// station, and the Feeney–Nilsson linear power consumption model of Table I.
//
// Transmissions occupy the sender's NIC for size/bandwidth of simulated
// time, queueing FCFS behind earlier transmissions, which is what produces
// the congestion effects (rising latency with motion-group size, saturated
// server downlink) that the paper's figures hinge on.
package network

import (
	"time"

	"repro/internal/geo"
	"repro/internal/workload"
)

// NodeID identifies a mobile host on the medium. The MSS is not a medium
// node; it is reached through the ServerLink.
type NodeID int

// BroadcastID is the destination of P2P broadcast messages.
const BroadcastID NodeID = -1

// Kind enumerates the protocol message types.
type Kind uint8

// Message kinds, covering the COCA protocol (request/reply/retrieve/data),
// the GroCoca signature exchange, NDP beacons, and the client–MSS
// exchanges.
const (
	KindBeacon Kind = iota + 1
	KindRequest
	KindReply
	KindRetrieve
	KindData
	KindSigRequest
	KindSigReply
	KindServerRequest
	KindServerReply
	KindValidate
	KindValidateOK
	KindLocationUpdate
	KindTouch
	KindSpill
)

var kindNames = map[Kind]string{
	KindBeacon:         "beacon",
	KindRequest:        "request",
	KindReply:          "reply",
	KindRetrieve:       "retrieve",
	KindData:           "data",
	KindSigRequest:     "sig-request",
	KindSigReply:       "sig-reply",
	KindServerRequest:  "server-request",
	KindServerReply:    "server-reply",
	KindValidate:       "validate",
	KindValidateOK:     "validate-ok",
	KindLocationUpdate: "location-update",
	KindTouch:          "touch",
	KindSpill:          "spill",
}

// String returns the protocol name of the kind.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return "unknown"
}

// Message is one protocol message. Size is the on-air size in bytes and
// fully determines transmission time and power; the other fields carry
// the protocol content and are never serialised.
//
// The scalar fields are shared by the kinds that need them (PROTOCOL.md's
// message table lists which kind uses which), so an ordinary exchange
// builds no payload on the heap. Extra holds the rare bulky content:
// multi-hop paths, signature deltas and filters, TCG membership changes
// and peer-access samples.
type Message struct {
	Kind Kind
	// Refresh marks an MSS data reply that answers a validation with an
	// updated copy.
	Refresh bool
	// Hops is the hops a search request has left; on a message routed
	// over several hops it is the current receiver's place on the route.
	Hops int32
	From NodeID
	To   NodeID
	Size int
	// Item is the data item the message is about.
	Item workload.ItemID
	// Seq is the request sequence number of the origin host: with
	// Origin it keys a search flood, and it matches replies and data to
	// the request that asked.
	Seq uint64
	// Origin is the requesting host, or on a reply or data message the
	// host holding the copy.
	Origin NodeID
	// RetrievedAt and TTL describe a copy's consistency contract: when it
	// was obtained and how long it stays valid. A copy offered by a peer
	// expires at RetrievedAt+TTL.
	RetrievedAt time.Duration
	TTL         time.Duration
	// Location is the sender's position reported to the MSS.
	Location geo.Point
	// Extra is the bulky content of the few messages that carry one.
	Extra any
}

// Default message sizes in bytes. Control messages are small fixed-size
// frames; data messages add HeaderSize to the item size.
const (
	BeaconSize     = 20
	ControlSize    = 40
	HeaderSize     = 40
	RequestSize    = ControlSize
	ReplySize      = ControlSize
	RetrieveSize   = ControlSize
	SigRequestSize = ControlSize
	ValidateSize   = ControlSize
)

// TxTime returns the time to transmit size bytes at bwKbps kilobits per
// second.
func TxTime(size int, bwKbps float64) time.Duration {
	if bwKbps <= 0 || size <= 0 {
		return 0
	}
	seconds := float64(size*8) / (bwKbps * 1000)
	return time.Duration(seconds * float64(time.Second))
}
