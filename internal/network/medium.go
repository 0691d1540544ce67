package network

import (
	"fmt"
	"time"

	"repro/internal/geo"
	"repro/internal/sim"
)

// Peer is a mobile host attached to the medium. Position and Connected are
// sampled at transmission-completion time to decide reachability; Receive is
// invoked once per delivered message.
//
// A peer whose Connected() value changes after registration must call
// Medium.ConnectivityChanged: the spatial index caches per-timestamp
// positions and reuses reachability sweeps until the clock or the
// connectivity epoch moves (see DESIGN.md "Spatial index").
type Peer interface {
	ID() NodeID
	Position(t time.Duration) geo.Point
	Connected() bool
	Receive(msg Message)
}

// Medium is the shared P2P wireless channel: every mobile host has one
// half-duplex NIC modelled as a single-capacity FCFS resource; a message
// occupies the sender's NIC for size/bandwidth, and on completion it is
// delivered to every connected peer within TranRange (broadcast) or to the
// destination with bystander discard costs (point-to-point).
//
// Reachability is resolved through a uniform-grid spatial index (cell size
// = TranRange) instead of a pairwise scan over every registered peer, so a
// completion costs O(k) for k hosts near the sender rather than O(N). The
// brute-force scan survives behind MediumConfig.BruteForce and is proven
// byte-identical by the index-equivalence tests.
type Medium struct {
	k      *sim.Kernel
	bwKbps float64
	rangeM float64
	power  PowerModel
	meter  *Meter
	peers  map[NodeID]Peer
	order  []NodeID // registration order, for deterministic iteration
	nics   map[NodeID]*sim.Resource
	faults *FaultPlan

	// Spatial index state. The grid is derived, rebuilt lazily from
	// Position(). regIdx maps a node to
	// its registration index; pos/syncedAt hold each host's last sampled
	// position and the timestamp it was sampled at (negative = never).
	brute    bool
	grid     *geo.Grid
	regIdx   map[NodeID]int
	pos      []geo.Point
	syncedAt []time.Duration
	// connEpoch advances on every registration or connectivity change;
	// a sweep at (sweepNow, sweepEpoch) stays valid for every later
	// completion at the same timestamp and epoch, because positions are a
	// pure function of time.
	connEpoch  uint64
	sweepNow   time.Duration
	sweepEpoch uint64
	sweepValid bool
	// Scratch buffers, reused across completions to keep the hot path
	// allocation-free.
	candSrc   []geo.GridID
	candDst   []geo.GridID
	neighbors []NodeID

	// stats
	sent, delivered uint64
	bytesSent       uint64
	drops           DropCounts
}

// DropCounts breaks a medium's dropped-message total down by cause, so
// experiments can attribute loss.
type DropCounts struct {
	// SenderDisconnected counts transmissions whose sender left the
	// network before its NIC finished sending.
	SenderDisconnected uint64
	// Unreachable counts point-to-point sends whose destination was out
	// of range or disconnected at completion time.
	Unreachable uint64
	// Fault counts messages destroyed by the installed FaultPlan.
	Fault uint64
	// Unregistered counts messages naming a sender or destination the
	// medium has never seen.
	Unregistered uint64
}

// Total sums the per-cause counters.
func (d DropCounts) Total() uint64 {
	return d.SenderDisconnected + d.Unreachable + d.Fault + d.Unregistered
}

// SetFaultPlan installs the injected-fault source. A nil plan (the
// default) keeps the ideal channel; it must be set before traffic flows.
func (m *Medium) SetFaultPlan(p *FaultPlan) { m.faults = p }

// MediumConfig parameterises the medium.
type MediumConfig struct {
	// BandwidthKbps is BW_P2P.
	BandwidthKbps float64
	// RangeM is TranRange in metres.
	RangeM float64
	// Power is the Table I model.
	Power PowerModel
	// BruteForce disables the spatial index and restores the pairwise
	// O(N) reachability scans. The two modes produce byte-identical
	// results (enforced by the index-equivalence tests); the flag exists
	// for A/B verification and benchmarking, not as a tuning knob.
	BruteForce bool
}

// NewMedium creates an empty medium served by k, charging energy to meter.
func NewMedium(k *sim.Kernel, cfg MediumConfig, meter *Meter) (*Medium, error) {
	if cfg.BandwidthKbps <= 0 {
		return nil, fmt.Errorf("network: bandwidth %v must be positive", cfg.BandwidthKbps)
	}
	if cfg.RangeM <= 0 {
		return nil, fmt.Errorf("network: range %v must be positive", cfg.RangeM)
	}
	if meter == nil {
		meter = NewMeter()
	}
	grid, err := geo.NewGrid(cfg.RangeM)
	if err != nil {
		return nil, fmt.Errorf("network: spatial index: %w", err)
	}
	return &Medium{
		k:      k,
		bwKbps: cfg.BandwidthKbps,
		rangeM: cfg.RangeM,
		power:  cfg.Power,
		meter:  meter,
		peers:  make(map[NodeID]Peer),
		nics:   make(map[NodeID]*sim.Resource),
		brute:  cfg.BruteForce,
		grid:   grid,
		regIdx: make(map[NodeID]int),
	}, nil
}

// Register attaches a peer to the medium. Registering a duplicate ID is an
// error.
func (m *Medium) Register(p Peer) error {
	if _, ok := m.peers[p.ID()]; ok {
		return fmt.Errorf("network: duplicate peer %d", p.ID())
	}
	m.peers[p.ID()] = p
	m.regIdx[p.ID()] = len(m.order)
	m.order = append(m.order, p.ID())
	m.pos = append(m.pos, geo.Point{})
	m.syncedAt = append(m.syncedAt, -1)
	m.nics[p.ID()] = sim.NewResource(m.k, 1)
	m.connEpoch++ // a new host invalidates any same-timestamp sweep
	return nil
}

// ConnectivityChanged tells the medium that a registered peer's
// Connected() value flipped. Peers must call it on every transition —
// the reachability sweep cache is keyed on the connectivity epoch, and a
// missed notification would let a stale candidate set survive within one
// timestamp. The id parameter documents intent (and anchors future
// per-cell sharding); the whole epoch advances regardless.
func (m *Medium) ConnectivityChanged(NodeID) { m.connEpoch++ }

// Meter returns the energy meter the medium charges to.
func (m *Medium) Meter() *Meter { return m.meter }

// RangeM returns the transmission range in metres.
func (m *Medium) RangeM() float64 { return m.rangeM }

// inRange reports whether two connected peers can hear each other now.
func (m *Medium) inRange(a, b Peer, now time.Duration) bool {
	return geo.WithinRange(a.Position(now), b.Position(now), m.rangeM)
}

// syncHost samples one host's position at now and re-buckets it in the
// grid. Each host is sampled at most once per timestamp.
func (m *Medium) syncHost(i int, now time.Duration) {
	p := m.peers[m.order[i]].Position(now)
	if m.syncedAt[i] < 0 || p != m.pos[i] {
		m.grid.Upsert(geo.GridID(i), p)
		m.pos[i] = p
	}
	m.syncedAt[i] = now
}

// sweep brings the spatial index up to date for a completion at time now
// involving srcIdx (and dstIdx ≥ 0 for point-to-point sends).
//
// Determinism contract: mobility models draw lazily from shared per-group
// RNG streams inside Position(t), so the *order of first Position calls
// per timestamp* is part of the replayed randomness. The sweep therefore
// replays exactly the call order of the brute-force scan it replaces:
//
//   - point-to-point with a connected destination samples src then dst
//     first (the reachability check), then every other connected peer in
//     registration order;
//   - broadcast (and a disconnected destination) samples src lazily, at
//     the first pair with another connected peer — a sender with no
//     connected peers is never sampled, exactly as the pairwise loops
//     never touched it;
//   - disconnected peers are never sampled (brute force short-circuits on
//     Connected() before Position()).
//
// A sweep is skipped entirely when the timestamp and connectivity epoch
// match the previous one: positions are a pure function of time, so
// nothing can have moved, and brute force would only repeat idempotent
// Position calls that consume no randomness.
//
//hot:runs before every transmission completion and neighbor query
func (m *Medium) sweep(now time.Duration, srcIdx, dstIdx int) {
	if m.sweepValid && m.sweepNow == now && m.sweepEpoch == m.connEpoch {
		return
	}
	srcSynced := m.syncedAt[srcIdx] == now
	if dstIdx >= 0 && m.peers[m.order[dstIdx]].Connected() {
		// The reachability check samples src then dst before bystanders.
		if !srcSynced {
			m.syncHost(srcIdx, now)
			srcSynced = true
		}
		if m.syncedAt[dstIdx] != now {
			m.syncHost(dstIdx, now)
		}
	}
	for i := range m.order {
		if i == srcIdx || i == dstIdx {
			continue
		}
		if !m.peers[m.order[i]].Connected() {
			continue
		}
		if !srcSynced {
			m.syncHost(srcIdx, now)
			srcSynced = true
		}
		if m.syncedAt[i] != now {
			m.syncHost(i, now)
		}
	}
	m.sweepValid, m.sweepNow, m.sweepEpoch = true, now, m.connEpoch
}

// candidates appends the registration indices of all indexed hosts within
// range of center, ascending — which is registration order, since grid IDs
// are registration indices. Disconnected hosts may appear (their grid
// position is stale); callers filter on Connected() exactly as the brute
// loops did.
func (m *Medium) candidates(dst []geo.GridID, center geo.Point) []geo.GridID {
	return m.grid.AppendRange(dst[:0], center, m.rangeM)
}

// Neighbors returns the IDs of connected peers currently within range of
// id, in registration order. The node itself is excluded; a disconnected or
// unknown node has no neighbors. The returned slice is a scratch buffer
// owned by the medium, valid until the next Neighbors call.
//
//hot:per-beacon-round reachability; 0 allocs/op pinned by TestNeighborsSteadyStateAllocs
func (m *Medium) Neighbors(id NodeID) []NodeID {
	self, ok := m.peers[id]
	if !ok || !self.Connected() {
		return nil
	}
	now := m.k.Now()
	m.neighbors = m.neighbors[:0]
	if m.brute {
		for _, oid := range m.order {
			if oid == id {
				continue
			}
			p := m.peers[oid]
			if p.Connected() && m.inRange(self, p, now) {
				m.neighbors = append(m.neighbors, oid)
			}
		}
	} else {
		selfIdx := m.regIdx[id]
		m.sweep(now, selfIdx, -1)
		if m.syncedAt[selfIdx] != now {
			// No other connected peer exists, so the sweep never sampled
			// this host; brute force would have found nothing either.
			return nil
		}
		m.candSrc = m.candidates(m.candSrc, m.pos[selfIdx])
		for _, ci := range m.candSrc {
			if int(ci) == selfIdx {
				continue
			}
			oid := m.order[ci]
			if m.peers[oid].Connected() {
				m.neighbors = append(m.neighbors, oid)
			}
		}
	}
	if len(m.neighbors) == 0 {
		return nil
	}
	return m.neighbors
}

// Broadcast transmits msg from its From node to every connected peer in
// range. The message spends size/bandwidth on the sender's NIC first
// (queueing FCFS behind earlier traffic); reachability is evaluated at
// completion time.
func (m *Medium) Broadcast(msg Message) {
	src, ok := m.peers[msg.From]
	if !ok {
		m.drops.Unregistered++
		return
	}
	msg.To = BroadcastID
	m.sent++
	m.bytesSent += uint64(msg.Size)
	m.nics[msg.From].Use(TxTime(msg.Size, m.bwKbps), func() {
		if !src.Connected() {
			m.drops.SenderDisconnected++
			return
		}
		now := m.k.Now()
		m.meter.Charge(msg.From, EnergyBroadcastSend, m.power.BSend.Energy(msg.Size))
		if m.brute {
			m.broadcastBrute(src, msg, now)
			return
		}
		srcIdx := m.regIdx[msg.From]
		m.sweep(now, srcIdx, -1)
		if m.syncedAt[srcIdx] != now {
			return // no other connected peer exists; nobody hears the frame
		}
		m.candSrc = m.candidates(m.candSrc, m.pos[srcIdx])
		for _, ci := range m.candSrc {
			if int(ci) == srcIdx {
				continue
			}
			oid := m.order[ci]
			if !m.peers[oid].Connected() {
				continue
			}
			m.deliverBroadcast(oid, msg, now)
		}
	})
}

// broadcastBrute is the receiver loop of the pairwise scan.
func (m *Medium) broadcastBrute(src Peer, msg Message, now time.Duration) {
	for _, oid := range m.order {
		if oid == msg.From {
			continue
		}
		p := m.peers[oid]
		if !p.Connected() || !m.inRange(src, p, now) {
			continue
		}
		m.deliverBroadcast(oid, msg, now)
	}
}

// deliverBroadcast charges and delivers one broadcast reception. The
// receiver hears the frame (and pays for decoding it) whether or not the
// fault plan corrupts it. Per-receiver draws run in registration order,
// keeping replays exact.
func (m *Medium) deliverBroadcast(oid NodeID, msg Message, now time.Duration) {
	m.meter.Charge(oid, EnergyBroadcastRecv, m.power.BRecv.Energy(msg.Size))
	if m.faults != nil && m.faults.DropP2P(msg.Size, now) {
		m.drops.Fault++
		return
	}
	m.delivered++
	m.peers[oid].Receive(msg)
}

// Send transmits msg point-to-point from msg.From to msg.To. If the
// destination is out of range or disconnected at completion time the
// message is lost. Bystanders in range of the source and/or destination pay
// the Table I discard costs.
func (m *Medium) Send(msg Message) {
	src, ok := m.peers[msg.From]
	if !ok {
		m.drops.Unregistered++
		return
	}
	dst, ok := m.peers[msg.To]
	if !ok {
		m.drops.Unregistered++
		return
	}
	m.sent++
	m.bytesSent += uint64(msg.Size)
	m.nics[msg.From].Use(TxTime(msg.Size, m.bwKbps), func() {
		if !src.Connected() {
			m.drops.SenderDisconnected++
			return
		}
		now := m.k.Now()
		m.meter.Charge(msg.From, EnergyP2PSend, m.power.Send.Energy(msg.Size))
		if m.brute {
			m.sendBrute(src, dst, msg, now)
			return
		}
		srcIdx, dstIdx := m.regIdx[msg.From], m.regIdx[msg.To]
		m.sweep(now, srcIdx, dstIdx)
		reachable := dst.Connected() &&
			geo.WithinRange(m.pos[srcIdx], m.pos[dstIdx], m.rangeM)
		faulted := false
		if reachable {
			// The destination receives (and pays for) the frame even
			// when the fault plan corrupts it in transit.
			m.meter.Charge(msg.To, EnergyP2PRecv, m.power.Recv.Energy(msg.Size))
			if m.faults != nil && m.faults.DropP2P(msg.Size, now) {
				faulted = true
				m.drops.Fault++
			}
		} else {
			m.drops.Unreachable++
		}
		// Bystander discard accounting: merge the sorted candidate sets
		// around the source and (when reached) the destination, walking
		// both in registration order.
		var nearSrc, nearDst []geo.GridID
		if m.syncedAt[srcIdx] == now {
			m.candSrc = m.candidates(m.candSrc, m.pos[srcIdx])
			nearSrc = m.candSrc
		}
		if reachable {
			m.candDst = m.candidates(m.candDst, m.pos[dstIdx])
			nearDst = m.candDst
		}
		i, j := 0, 0
		for i < len(nearSrc) || j < len(nearDst) {
			var ci int
			var ns, nd bool
			switch {
			case j >= len(nearDst) || (i < len(nearSrc) && nearSrc[i] < nearDst[j]):
				ci, ns = int(nearSrc[i]), true
				i++
			case i >= len(nearSrc) || nearDst[j] < nearSrc[i]:
				ci, nd = int(nearDst[j]), true
				j++
			default: // equal: in range of both
				ci, ns, nd = int(nearSrc[i]), true, true
				i++
				j++
			}
			if ci == srcIdx || ci == dstIdx {
				continue
			}
			oid := m.order[ci]
			if !m.peers[oid].Connected() {
				continue
			}
			switch {
			case ns && nd:
				m.meter.Charge(oid, EnergyP2PDiscard, m.power.DiscardBoth.Energy(msg.Size))
			case ns:
				m.meter.Charge(oid, EnergyP2PDiscard, m.power.DiscardSrc.Energy(msg.Size))
			case nd:
				m.meter.Charge(oid, EnergyP2PDiscard, m.power.DiscardDst.Energy(msg.Size))
			}
		}
		if reachable && !faulted {
			m.delivered++
			dst.Receive(msg)
		}
	})
}

// sendBrute is the completion body of the pairwise point-to-point scan.
func (m *Medium) sendBrute(src, dst Peer, msg Message, now time.Duration) {
	reachable := dst.Connected() && m.inRange(src, dst, now)
	faulted := false
	if reachable {
		m.meter.Charge(msg.To, EnergyP2PRecv, m.power.Recv.Energy(msg.Size))
		if m.faults != nil && m.faults.DropP2P(msg.Size, now) {
			faulted = true
			m.drops.Fault++
		}
	} else {
		m.drops.Unreachable++
	}
	for _, oid := range m.order {
		if oid == msg.From || oid == msg.To {
			continue
		}
		p := m.peers[oid]
		if !p.Connected() {
			continue
		}
		nearSrc := m.inRange(src, p, now)
		nearDst := reachable && m.inRange(dst, p, now)
		switch {
		case nearSrc && nearDst:
			m.meter.Charge(oid, EnergyP2PDiscard, m.power.DiscardBoth.Energy(msg.Size))
		case nearSrc:
			m.meter.Charge(oid, EnergyP2PDiscard, m.power.DiscardSrc.Energy(msg.Size))
		case nearDst:
			m.meter.Charge(oid, EnergyP2PDiscard, m.power.DiscardDst.Energy(msg.Size))
		}
	}
	if reachable && !faulted {
		m.delivered++
		dst.Receive(msg)
	}
}

// Stats reports message counts since creation; dropped sums every drop
// cause (see Drops for the breakdown).
func (m *Medium) Stats() (sent, delivered, dropped, bytesSent uint64) {
	return m.sent, m.delivered, m.drops.Total(), m.bytesSent
}

// Drops reports the per-cause drop counters.
func (m *Medium) Drops() DropCounts { return m.drops }
