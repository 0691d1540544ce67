// Package ndp implements the neighbor discovery protocol COCA assumes: each
// mobile host broadcasts a periodic hello beacon; a peer that has not been
// heard from for a configurable number of beacon cycles is considered to
// have suffered a link failure and is dropped from the neighbor table. A
// neighbor's first beacon is reported through the OnUp callback, which
// GroCoca's signature exchange protocol uses to detect TCG members
// appearing and reconnecting.
//
// Cost model: each beacon is one medium Broadcast, so a population of N
// hosts beaconing on a shared interval completes N transmissions per
// period. With the medium's spatial index each completion costs O(k) for
// k in-range hosts (positions are synced lazily, per host), keeping a
// beacon tick at O(N·k) instead of the pairwise scan's O(N²).
package ndp

import (
	"fmt"
	"time"

	"repro/internal/network"
	"repro/internal/sim"
)

// Config parameterises one node's NDP instance.
type Config struct {
	// Interval is the beacon period.
	Interval time.Duration
	// MissedCycles is how many silent beacon periods constitute a link
	// failure.
	MissedCycles int
	// OnUp is invoked when a new neighbor is first heard. Optional.
	OnUp func(network.NodeID)
	// Beacon, when set, supplies "other useful information" carried by
	// each hello message — GroCoca piggybacks its pending cache-signature
	// deltas here. It returns the message's Extra content and the extra
	// bytes it adds to the beacon size.
	Beacon func() (extra any, extraBytes int)
}

// unseen marks a neighbor-table slot whose node is not a neighbor.
const unseen time.Duration = -1

// Protocol is one mobile host's NDP state: its beacon loop and neighbor
// table.
type Protocol struct {
	k      *sim.Kernel
	medium *network.Medium
	id     network.NodeID
	cfg    Config
	// lastSeen[id] is when neighbor id was last heard, or unseen; it
	// grows to the largest ID heard. known lists the IDs whose slot is
	// set, in no particular order, so expiry and Stop cost O(neighbors)
	// rather than O(N).
	lastSeen []time.Duration
	known    []network.NodeID
	running  bool
	// tick is the pending beacon; loopFn is p.loop, bound once so that
	// scheduling a beacon allocates nothing.
	tick   sim.Event
	loopFn func()
}

// New creates a stopped protocol instance for the given node.
func New(k *sim.Kernel, medium *network.Medium, id network.NodeID, cfg Config) (*Protocol, error) {
	if cfg.Interval <= 0 {
		return nil, fmt.Errorf("ndp: interval %v must be positive", cfg.Interval)
	}
	if cfg.MissedCycles < 1 {
		return nil, fmt.Errorf("ndp: missed cycles %d must be at least 1", cfg.MissedCycles)
	}
	p := &Protocol{
		k:      k,
		medium: medium,
		id:     id,
		cfg:    cfg,
	}
	p.loopFn = p.loop
	return p, nil
}

// Start begins beaconing and neighbor expiry. Starting a running protocol
// is a no-op.
func (p *Protocol) Start() {
	if p.running {
		return
	}
	p.running = true
	p.loop()
}

// Stop halts beaconing and clears the neighbor table. A host calls Stop
// when it disconnects from the network.
func (p *Protocol) Stop() {
	if !p.running {
		return
	}
	p.running = false
	p.tick.Cancel()
	for _, id := range p.known {
		p.lastSeen[id] = unseen
	}
	p.known = p.known[:0]
}

// Running reports whether the protocol is beaconing.
func (p *Protocol) Running() bool { return p.running }

func (p *Protocol) loop() {
	if !p.running {
		return
	}
	msg := network.Message{
		Kind: network.KindBeacon,
		From: p.id,
		Size: network.BeaconSize,
	}
	if p.cfg.Beacon != nil {
		extra, extraBytes := p.cfg.Beacon()
		msg.Extra = extra
		msg.Size += extraBytes
	}
	p.medium.Broadcast(msg)
	p.expire()
	p.tick = p.k.Schedule(p.cfg.Interval, p.loopFn)
}

// expire drops neighbors that have been silent too long.
func (p *Protocol) expire() {
	deadline := time.Duration(p.cfg.MissedCycles) * p.cfg.Interval
	now := p.k.Now()
	for i := 0; i < len(p.known); {
		id := p.known[i]
		if now-p.lastSeen[id] <= deadline {
			i++
			continue
		}
		p.lastSeen[id] = unseen
		last := len(p.known) - 1
		p.known[i] = p.known[last]
		p.known = p.known[:last]
	}
}

// HandleBeacon records a beacon heard from a peer. The owning host routes
// KindBeacon messages here from its Receive method. Negative IDs are not
// host addresses and are ignored.
//
//hot:every beacon a host hears; 0 allocs/op pinned by TestHandleBeaconSteadyStateAllocs
func (p *Protocol) HandleBeacon(from network.NodeID) {
	if !p.running || from < 0 {
		return
	}
	for int(from) >= len(p.lastSeen) {
		p.lastSeen = append(p.lastSeen, unseen)
	}
	known := p.lastSeen[from] != unseen
	p.lastSeen[from] = p.k.Now()
	if known {
		return
	}
	p.known = append(p.known, from)
	if p.cfg.OnUp != nil {
		p.cfg.OnUp(from)
	}
}

// Knows reports whether the peer is currently in the neighbor table.
func (p *Protocol) Knows(id network.NodeID) bool {
	return id >= 0 && int(id) < len(p.lastSeen) && p.lastSeen[id] != unseen
}

// NeighborCount returns the size of the neighbor table.
func (p *Protocol) NeighborCount() int { return len(p.known) }
