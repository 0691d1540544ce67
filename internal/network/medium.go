package network

import (
	"fmt"
	"math"
	"time"

	"repro/internal/geo"
	"repro/internal/sim"
)

// Peer is a mobile host attached to the medium. Motion is sampled at
// transmission-completion time to decide reachability; Receive is invoked
// once per delivered message. Whether a peer is on the air is medium state,
// set through Medium.SetConnected.
//
// Receive gets a pointer into the sender's NIC ring, shared by every
// receiver of a broadcast. It is valid until Receive returns, and nobody
// writes through it: a receiver that keeps content copies it, and a relay
// copies the message before changing a field (DESIGN.md "Request path").
//
// Motion reports the peer's position at t, the time until which that
// position is a pure function of time (no randomness drawn, no state changed
// that alters later results), and a bound on its speed until then. The
// medium re-samples a peer only when that time has passed, when the speed
// bound says it may have drifted by the query slack, or when the bound
// cannot settle whether the peer hears a completing frame (see DESIGN.md
// "Spatial index").
type Peer interface {
	ID() NodeID
	Motion(t time.Duration) (pos geo.Point, until time.Duration, speed float64)
	Receive(msg *Message)
}

// Medium is the shared P2P wireless channel: every mobile host has one
// half-duplex NIC modelled as an FCFS sim.Channel of frames; a message
// occupies the sender's NIC for size/bandwidth, and on completion it is
// delivered to every connected peer within TranRange (broadcast) or to the
// destination with bystander discard costs (point-to-point).
//
// Reachability is resolved through a uniform-grid spatial index (cell size
// = TranRange) instead of a pairwise scan over every registered peer, so a
// completion costs O(k) for k hosts near the sender rather than O(N). The
// grid is synced lazily: a host is re-sampled only when its mobility could
// draw randomness or its worst-case drift since the last sample could reach
// a fixed slack, and queries widen by that slack. A candidate's drift bound
// then decides whether it is in range at the completion time; only a host
// the bound cannot classify is sampled. The brute-force scan survives
// behind MediumConfig.BruteForce and is proven byte-identical by the
// index-equivalence tests.
type Medium struct {
	k      *sim.Kernel
	bwKbps float64
	rangeM float64
	meter  *Meter
	faults *FaultPlan

	// Peers live in registration slots: peers[i], ids[i], nics[i] and
	// connected[i] belong to the i-th registered peer, whose grid ID is
	// also i. regIdx[id] is the slot of the peer registered as id, or -1;
	// it resolves a message's endpoints once. nConnected counts the true
	// entries of connected; only SetConnected changes either.
	peers      []Peer
	ids        []NodeID
	nics       []*sim.Channel[frame]
	connected  []bool
	nConnected int
	regIdx     []int

	// Spatial index state. The grid is derived, rebuilt lazily from
	// Motion(), and holds each host's last sampled position; sampledAt
	// holds the time it was sampled at (negative = never), and speed the
	// speed bound that sample reported, in metres per nanosecond.
	brute     bool
	grid      *geo.Grid
	sampledAt []time.Duration
	speed     []float64
	// slack is how far a grid position may lag its host's true position;
	// queries widen by it. driftNs is 90% of it in metre-nanoseconds per
	// metre-per-second: a host moving at speed v stays within slack of its
	// sample for driftNs/v nanoseconds, with margin for float rounding.
	slack   float64
	driftNs float64
	// wake[i] is when slot i must be re-sampled: one nanosecond past its
	// piece's end (its next Motion call may draw), or earlier once its
	// drift could reach the slack. minWake is at most every connected
	// host's wake.
	wake    []time.Duration
	minWake time.Duration
	// Scratch buffers, reused across completions to keep the hot path
	// allocation-free.
	candSrc []geo.GridID
	candDst []geo.GridID

	// stats
	sent, delivered uint64
	bytesSent       uint64
	drops           DropCounts
}

// frame is one transmission on a NIC: the registration slots of its
// sender and, for a point-to-point send, its destination (-1 for a
// broadcast), and the message.
type frame struct {
	src, dst int
	msg      Message
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
	slack := cfg.RangeM / 8
	return &Medium{
		k:       k,
		bwKbps:  cfg.BandwidthKbps,
		rangeM:  cfg.RangeM,
		meter:   meter,
		brute:   cfg.BruteForce,
		grid:    grid,
		slack:   slack,
		driftNs: 0.9 * slack * float64(time.Second),
	}, nil
}

// Register attaches a peer to the medium, connected. Registering a
// duplicate or negative ID is an error: negative IDs are not host
// addresses (BroadcastID is -1), and the medium's slot index and the
// energy meter's per-node sums are both indexed by ID.
func (m *Medium) Register(p Peer) error {
	id := p.ID()
	if id < 0 {
		return fmt.Errorf("network: negative peer ID %d", id)
	}
	if m.slot(id) >= 0 {
		return fmt.Errorf("network: duplicate peer %d", id)
	}
	for int(id) >= len(m.regIdx) {
		m.regIdx = append(m.regIdx, -1)
	}
	m.regIdx[id] = len(m.peers)
	m.peers = append(m.peers, p)
	m.ids = append(m.ids, id)
	m.nics = append(m.nics, sim.NewChannel(m.k, m.complete))
	m.connected = append(m.connected, false)
	m.sampledAt = append(m.sampledAt, -1)
	m.speed = append(m.speed, 0)
	m.wake = append(m.wake, 0) // due at the next sync
	m.SetConnected(id, true)
	return nil
}

// SetConnected puts the peer registered as id on the air (on) or takes it
// off. A disconnected peer neither sends, hears nor is sampled. Setting the
// current value again, or naming an unknown peer, does nothing.
func (m *Medium) SetConnected(id NodeID, on bool) {
	i := m.slot(id)
	if i < 0 || m.connected[i] == on {
		return
	}
	m.connected[i] = on
	if on {
		m.nConnected++
		// The host's wake may have passed while it was off the air, and
		// minWake does not cover it: the next sync re-checks every host.
		m.minWake = 0
	} else {
		m.nConnected--
	}
}

// Connected reports whether the peer registered as id is on the air; an
// unknown peer is not.
func (m *Medium) Connected(id NodeID) bool {
	i := m.slot(id)
	return i >= 0 && m.connected[i]
}

// Idle reports whether the NIC of the peer registered as id holds no
// frame: none waiting, none in service and none being delivered. Only
// then does no frame reference content the peer sent. An unknown peer's
// NIC is idle.
func (m *Medium) Idle(id NodeID) bool {
	i := m.slot(id)
	return i < 0 || m.nics[i].Idle()
}

// slot returns the registration slot of the peer registered as id, or -1.
func (m *Medium) slot(id NodeID) int {
	if id < 0 || int(id) >= len(m.regIdx) {
		return -1
	}
	return m.regIdx[id]
}

// Meter returns the energy meter the medium charges to.
func (m *Medium) Meter() *Meter { return m.meter }

// RangeM returns the transmission range in metres.
func (m *Medium) RangeM() float64 { return m.rangeM }

// inRange reports whether the connected peers in slots a and b can hear
// each other now.
func (m *Medium) inRange(a, b int, now time.Duration) bool {
	pa, _, _ := m.peers[a].Motion(now)
	pb, _, _ := m.peers[b].Motion(now)
	return geo.WithinRange(pa, pb, m.rangeM)
}

// sample brings slot i's grid position up to time now, at most once per
// timestamp, and sets its wake: one nanosecond past the end of the piece
// Motion reported, or the last nanosecond before its drift at the reported
// speed could reach 90% of the slack, whichever is earlier (never before
// now + 1 ns). A speed bound that is not ≥ 0 (NaN or negative) bounds
// nothing and counts as infinite: the host is re-sampled at every sync and
// never decided from its drift.
func (m *Medium) sample(i int, now time.Duration) {
	if m.sampledAt[i] == now {
		return
	}
	pos, until, speed := m.peers[i].Motion(now)
	if !(speed >= 0) {
		speed = math.Inf(1)
	}
	m.grid.Upsert(geo.GridID(i), pos)
	m.sampledAt[i] = now
	m.speed[i] = speed / float64(time.Second)
	wake := until
	if wake < math.MaxInt64 {
		wake++
	}
	if dt := m.driftNs / speed; dt < float64(wake-now) {
		wake = now + max(time.Duration(dt), 1)
	}
	m.wake[i] = wake
}

// sync brings the spatial index up to date for a completion at time now
// sent by srcIdx (to dstIdx ≥ 0 for point-to-point sends), and reports
// whether src was sampled: false means no other peer is connected, so
// nobody can hear it and nothing was sampled.
//
// Determinism contract: mobility models draw lazily from shared per-group
// RNG streams inside Motion(t), so the order of the calls that *can draw*
// is part of the replayed randomness. A call can draw only at a time past
// the piece end that host's previous call reported, so sync replays the
// brute-force scan's order for exactly those calls:
//
//   - src first, when the destination or any other peer is connected
//     (the pairwise loops sampled src at its first pair with another
//     connected peer), then a connected destination;
//   - then every connected host whose wake has passed, in registration
//     order — once per timestamp and connectivity change, and only when
//     now has reached the earliest wake;
//   - disconnected peers are never sampled (brute force short-circuits on
//     connectivity before Motion).
//
// src and dst are sampled on every completion, before anything else: a
// second sender at the same timestamp was not necessarily sampled by the
// first completion's sync, and sampling it first cannot draw, since any
// host that could was sampled by that sync.
//
//hot:runs before every transmission completion
func (m *Medium) sync(now time.Duration, srcIdx, dstIdx int) bool {
	if dstIdx >= 0 && !m.connected[dstIdx] {
		dstIdx = -1
	}
	// src is connected, so any other connected peer makes the count ≥ 2.
	if dstIdx < 0 && m.nConnected < 2 {
		return false
	}
	m.sample(srcIdx, now)
	if dstIdx >= 0 {
		m.sample(dstIdx, now)
	}
	if now < m.minWake {
		return true
	}
	next := time.Duration(math.MaxInt64)
	for i, on := range m.connected {
		if !on {
			continue
		}
		if m.wake[i] <= now {
			m.sample(i, now)
		}
		next = min(next, m.wake[i])
	}
	m.minWake = next
	return true
}

// The drift-bound margins. A position a model computes may differ from
// the exact one by float rounding, as may the distances compared here, so
// a decision from the bound widens the drift by absErr plus relErr times
// the magnitudes involved. relErr is about 10⁷ float64 unit roundoffs;
// absErr covers rounding in a position formula whose inputs (segment ends,
// a group's reference point and offset) are far larger than the position
// itself, up to about 10¹¹ m. See DESIGN.md "Spatial index".
const (
	absErr = 1e-3
	relErr = 1e-9
)

// candidates fills dst with the slots of all indexed hosts whose grid
// position lies within range plus slack of host i's position at now,
// ascending — which is registration order. It is a superset of the
// connected hosts in range: callers decide each connected candidate with
// reaches.
func (m *Medium) candidates(dst []geo.GridID, i int) []geo.GridID {
	return m.grid.AppendRange(dst[:0], m.grid.Pos(geo.GridID(i)), m.rangeM+m.slack)
}

// reaches reports whether the connected host in slot j is within range, at
// now, of p, a position sampled at now: exactly geo.WithinRange(p, q,
// range) for q the host's position at now. A host sampled at now is
// compared as is. Otherwise its drift e = speed·(now − sampledAt) bounds
// how far it is from its grid position g, so the host is in range when
// |p − g| + e < range, and out of range when |p − g| − e > range, with e
// widened by the float margins; only a host between the two is sampled.
// A NaN or infinite position, speed or drift never settles, and sampling
// it never draws randomness: sync already sampled every host whose Motion
// could draw at now.
//
//hot:per-candidate reachability decision of every completion
func (m *Medium) reaches(p geo.Point, j int, now time.Duration) bool {
	g := m.grid.Pos(geo.GridID(j))
	if at := m.sampledAt[j]; at != now {
		e := m.speed[j] * float64(now-at)
		mag := math.Abs(p.X) + math.Abs(p.Y) + math.Abs(g.X) + math.Abs(g.Y)
		if tol := e + absErr + relErr*(e+mag+m.rangeM); tol < m.rangeM {
			d2 := geo.Dist2(p, g)
			if in := m.rangeM - tol; d2 < in*in {
				return true
			}
			if out := m.rangeM + tol; d2 > out*out {
				return false
			}
		}
		m.sample(j, now)
		g = m.grid.Pos(geo.GridID(j))
	}
	return geo.WithinRange(p, g, m.rangeM)
}

// hears reports whether the host in slot j is connected and in range of
// p at now.
func (m *Medium) hears(p geo.Point, j int, now time.Duration) bool {
	return m.connected[j] && m.reaches(p, j, now)
}

// Broadcast transmits msg from its From node to every connected peer in
// range. The message spends size/bandwidth on the sender's NIC first
// (queueing FCFS behind earlier traffic); reachability is evaluated at
// completion time.
func (m *Medium) Broadcast(msg Message) {
	srcIdx := m.slot(msg.From)
	if srcIdx < 0 {
		m.drops.Unregistered++
		return
	}
	msg.To = BroadcastID
	m.sent++
	m.bytesSent += uint64(msg.Size)
	m.nics[srcIdx].Send(frame{src: srcIdx, dst: -1, msg: msg}, TxTime(msg.Size, m.bwKbps))
}

// complete runs when frame f leaves its sender's NIC. A sender that left
// the network meanwhile sent nothing. The frame stays in its NIC's ring
// until complete returns, so receivers are handed &f.msg.
func (m *Medium) complete(f *frame) {
	switch {
	case !m.connected[f.src]:
		m.drops.SenderDisconnected++
	case f.dst < 0:
		m.broadcastDone(f.src, &f.msg)
	default:
		m.sendDone(f.src, f.dst, &f.msg)
	}
	if msgCheck {
		poison(&f.msg)
	}
}

// receive hands msg to the peer in slot i. Under the msgcheck build tag it
// panics when the peer changed the message.
func (m *Medium) receive(i int, msg *Message) {
	if !msgCheck {
		m.peers[i].Receive(msg)
		return
	}
	was := *msg
	m.peers[i].Receive(msg)
	checkUnchanged(msg, &was, m.ids[i])
}

// broadcastDone delivers a completed broadcast to every connected peer in
// range of its sender.
func (m *Medium) broadcastDone(srcIdx int, msg *Message) {
	now := m.k.Now()
	m.meter.Charge(msg.From, EnergyBroadcastSend, Power.BSend.Energy(msg.Size))
	if m.brute {
		m.broadcastBrute(srcIdx, msg, now)
		return
	}
	if !m.sync(now, srcIdx, -1) {
		return // no other connected peer exists; nobody hears the frame
	}
	src := m.grid.Pos(geo.GridID(srcIdx))
	m.candSrc = m.candidates(m.candSrc, srcIdx)
	for _, ci := range m.candSrc {
		if int(ci) != srcIdx && m.hears(src, int(ci), now) {
			m.deliverBroadcast(int(ci), msg, now)
		}
	}
}

// broadcastBrute is the receiver loop of the pairwise scan.
func (m *Medium) broadcastBrute(srcIdx int, msg *Message, now time.Duration) {
	for i, on := range m.connected {
		if i != srcIdx && on && m.inRange(srcIdx, i, now) {
			m.deliverBroadcast(i, msg, now)
		}
	}
}

// deliverBroadcast charges and delivers one broadcast reception to the
// host in slot i. The receiver hears the frame (and pays for decoding it)
// whether or not the fault plan corrupts it. Per-receiver draws run in
// registration order, keeping replays exact.
func (m *Medium) deliverBroadcast(i int, msg *Message, now time.Duration) {
	m.meter.Charge(m.ids[i], EnergyBroadcastRecv, Power.BRecv.Energy(msg.Size))
	if m.faults != nil && m.faults.DropP2P(msg.Size, now) {
		m.drops.Fault++
		return
	}
	m.delivered++
	m.receive(i, msg)
}

// Send transmits msg point-to-point from msg.From to msg.To. If the
// destination is out of range or disconnected at completion time the
// message is lost. Bystanders in range of the source and/or destination pay
// the Table I discard costs.
func (m *Medium) Send(msg Message) {
	srcIdx, dstIdx := m.slot(msg.From), m.slot(msg.To)
	if srcIdx < 0 || dstIdx < 0 {
		m.drops.Unregistered++
		return
	}
	m.sent++
	m.bytesSent += uint64(msg.Size)
	m.nics[srcIdx].Send(frame{src: srcIdx, dst: dstIdx, msg: msg}, TxTime(msg.Size, m.bwKbps))
}

// sendDone completes a point-to-point send: it delivers the message if
// the destination is connected and in range, and charges bystanders the
// Table I discard costs.
func (m *Medium) sendDone(srcIdx, dstIdx int, msg *Message) {
	now := m.k.Now()
	m.meter.Charge(msg.From, EnergyP2PSend, Power.Send.Energy(msg.Size))
	if m.brute {
		m.sendBrute(srcIdx, dstIdx, msg, now)
		return
	}
	sampled := m.sync(now, srcIdx, dstIdx)
	srcPos, dstPos := m.grid.Pos(geo.GridID(srcIdx)), m.grid.Pos(geo.GridID(dstIdx))
	reachable := m.connected[dstIdx] && geo.WithinRange(srcPos, dstPos, m.rangeM)
	faulted := false
	if reachable {
		// The destination receives (and pays for) the frame even
		// when the fault plan corrupts it in transit.
		m.meter.Charge(msg.To, EnergyP2PRecv, Power.Recv.Energy(msg.Size))
		if m.faults != nil && m.faults.DropP2P(msg.Size, now) {
			faulted = true
			m.drops.Fault++
		}
	} else {
		m.drops.Unreachable++
	}
	// Bystander discard accounting: merge the sorted candidate sets
	// around the source and (when reached) the destination, walking
	// their union in registration order.
	var nearSrc, nearDst []geo.GridID
	if sampled {
		m.candSrc = m.candidates(m.candSrc, srcIdx)
		nearSrc = m.candSrc
	}
	if reachable {
		m.candDst = m.candidates(m.candDst, dstIdx)
		nearDst = m.candDst
	}
	i, j := 0, 0
	for i < len(nearSrc) || j < len(nearDst) {
		var ci int
		switch {
		case j >= len(nearDst) || (i < len(nearSrc) && nearSrc[i] < nearDst[j]):
			ci = int(nearSrc[i])
			i++
		case i >= len(nearSrc) || nearDst[j] < nearSrc[i]:
			ci = int(nearDst[j])
			j++
		default: // a candidate around both
			ci = int(nearSrc[i])
			i++
			j++
		}
		if ci == srcIdx || ci == dstIdx || !m.connected[ci] {
			continue
		}
		ns := m.reaches(srcPos, ci, now)
		nd := reachable && m.reaches(dstPos, ci, now)
		oid := m.ids[ci]
		switch {
		case ns && nd:
			m.meter.Charge(oid, EnergyP2PDiscard, Power.DiscardBoth.Energy(msg.Size))
		case ns:
			m.meter.Charge(oid, EnergyP2PDiscard, Power.DiscardSrc.Energy(msg.Size))
		case nd:
			m.meter.Charge(oid, EnergyP2PDiscard, Power.DiscardDst.Energy(msg.Size))
		}
	}
	if reachable && !faulted {
		m.delivered++
		m.receive(dstIdx, msg)
	}
}

// sendBrute is the completion body of the pairwise point-to-point scan.
func (m *Medium) sendBrute(srcIdx, dstIdx int, msg *Message, now time.Duration) {
	reachable := m.connected[dstIdx] && m.inRange(srcIdx, dstIdx, now)
	faulted := false
	if reachable {
		m.meter.Charge(msg.To, EnergyP2PRecv, Power.Recv.Energy(msg.Size))
		if m.faults != nil && m.faults.DropP2P(msg.Size, now) {
			faulted = true
			m.drops.Fault++
		}
	} else {
		m.drops.Unreachable++
	}
	for i, on := range m.connected {
		if i == srcIdx || i == dstIdx || !on {
			continue
		}
		oid := m.ids[i]
		nearSrc := m.inRange(srcIdx, i, now)
		nearDst := reachable && m.inRange(dstIdx, i, now)
		switch {
		case nearSrc && nearDst:
			m.meter.Charge(oid, EnergyP2PDiscard, Power.DiscardBoth.Energy(msg.Size))
		case nearSrc:
			m.meter.Charge(oid, EnergyP2PDiscard, Power.DiscardSrc.Energy(msg.Size))
		case nearDst:
			m.meter.Charge(oid, EnergyP2PDiscard, Power.DiscardDst.Energy(msg.Size))
		}
	}
	if reachable && !faulted {
		m.delivered++
		m.receive(dstIdx, msg)
	}
}

// Stats reports message counts since creation; dropped sums every drop
// cause (see Drops for the breakdown).
func (m *Medium) Stats() (sent, delivered, dropped, bytesSent uint64) {
	return m.sent, m.delivered, m.drops.Total(), m.bytesSent
}

// Drops reports the per-cause drop counters.
func (m *Medium) Drops() DropCounts { return m.drops }
