package server

import (
	"fmt"

	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Changes carries the TCG membership changes pending for a client in the
// Extra field of an MSS reply or location update.
type Changes struct {
	List []MembershipChange
}

// AccessSample carries a client's ρ_P sample of the items it retrieved
// from peers since its last MSS contact, in the Extra field of a data
// request or location update (the passive collection strategy of Section
// IV.B).
type AccessSample struct {
	Items []workload.ItemID
}

// MSS is the mobile support station: it serves pull requests over the
// shared channels first-come-first-serve, assigns TTLs from the catalog's
// EWMA update intervals, and — when TCG tracking is enabled — runs the
// group discovery algorithms on every piggybacked location and access,
// delivering membership changes asynchronously on each client contact.
type MSS struct {
	k       *sim.Kernel
	link    *network.ServerLink
	catalog *Catalog
	// tcg is nil for schemes without group management (SC, plain COCA).
	tcg *TCGManager
	// stats
	requests    uint64
	validations uint64
	refreshes   uint64
	locUpdates  uint64
}

// NewMSS wires the station to its link and installs the uplink handler.
func NewMSS(k *sim.Kernel, link *network.ServerLink, catalog *Catalog, tcg *TCGManager) (*MSS, error) {
	if link == nil || catalog == nil {
		return nil, fmt.Errorf("server: link and catalog are required")
	}
	s := &MSS{k: k, link: link, catalog: catalog, tcg: tcg}
	link.SetHandler(s.handle)
	return s, nil
}

// TCG returns the group manager, or nil when tracking is disabled.
func (s *MSS) TCG() *TCGManager { return s.tcg }

// Catalog returns the data catalog.
func (s *MSS) Catalog() *Catalog { return s.catalog }

// Stats reports request counts since creation.
func (s *MSS) Stats() (requests, validations, refreshes, locUpdates uint64) {
	return s.requests, s.validations, s.refreshes, s.locUpdates
}

// handle serves one uplink message. A data request or validation carries
// the item (and a validation the copy's retrieval time); both, and the
// explicit location update, carry the client's location, and a request or
// update carries an *AccessSample in Extra when it has one. Replies carry
// the item and its TTL, with pending TCG membership changes as *Changes in
// Extra.
//
//hot:every MSS exchange; 0 allocs/op pinned by the client's SC round-trip pin
func (s *MSS) handle(msg network.Message) {
	switch msg.Kind {
	case network.KindServerRequest:
		s.handleRequest(msg)
	case network.KindValidate:
		s.handleValidate(msg)
	case network.KindLocationUpdate:
		s.handleLocationUpdate(msg)
	default:
		// Unknown uplink traffic is dropped; the simulation never
		// generates it.
	}
}

// recordContact feeds a client's piggybacked location, the accessed item
// (none for a location update) and its peer-access sample to TCG
// discovery, and returns the membership changes pending for the client.
func (s *MSS) recordContact(msg network.Message, access bool) []MembershipChange {
	if s.tcg == nil {
		return nil
	}
	s.tcg.RecordLocation(msg.From, msg.Location)
	if access {
		s.tcg.RecordAccess(msg.From, msg.Item)
	}
	if sample, ok := msg.Extra.(*AccessSample); ok {
		for _, it := range sample.Items {
			s.tcg.RecordAccess(msg.From, it)
		}
	}
	return s.tcg.DrainChanges(msg.From)
}

// reply queues a downlink message for the client that sent msg.
func (s *MSS) reply(msg network.Message, kind network.Kind, size int, refresh bool, changes []MembershipChange) {
	out := network.Message{
		Kind:    kind,
		Refresh: refresh,
		To:      msg.From,
		Size:    size,
		Item:    msg.Item,
		TTL:     s.catalog.TTL(msg.Item),
	}
	if len(changes) > 0 {
		out.Extra = &Changes{List: changes}
	}
	s.link.SendDown(out)
}

func (s *MSS) handleRequest(msg network.Message) {
	s.requests++
	s.catalog.RecordDemand(msg.Item)
	changes := s.recordContact(msg, true)
	s.reply(msg, network.KindServerReply, network.HeaderSize+s.catalog.ItemSize(), false, changes)
}

func (s *MSS) handleValidate(msg network.Message) {
	s.validations++
	changes := s.recordContact(msg, true)
	if s.catalog.UpdatedSince(msg.Item, msg.RetrievedAt) {
		// Stale copy: ship the up-to-date item.
		s.refreshes++
		s.reply(msg, network.KindServerReply, network.HeaderSize+s.catalog.ItemSize(), true, changes)
		return
	}
	// Copy is still valid: approve with a renewed TTL.
	s.reply(msg, network.KindValidateOK, network.ControlSize, false, changes)
}

func (s *MSS) handleLocationUpdate(msg network.Message) {
	s.locUpdates++
	changes := s.recordContact(msg, false)
	if len(changes) == 0 {
		return
	}
	s.link.SendDown(network.Message{
		Kind:  network.KindLocationUpdate,
		To:    msg.From,
		Size:  network.ControlSize,
		Extra: &Changes{List: changes},
	})
}
