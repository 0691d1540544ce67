package client

import (
	"time"

	"repro/internal/geo"
	"repro/internal/network"
	"repro/internal/server"
	"repro/internal/workload"
)

// requestPayload is the P2P broadcast searching the peers' caches. Path
// accumulates the hop sequence from the origin (excluding the origin) so
// replies can be routed back over multi-hop floods.
type requestPayload struct {
	Key      floodKey
	Item     workload.ItemID
	HopsLeft int
	Path     []network.NodeID
	// Piggybacked GroCoca signature update (bit positions set / cleared by
	// the origin since its last broadcast).
	SigInsert []int
	SigEvict  []int
}

// replyPayload announces that Holder caches a valid copy; Path is the full
// hop path from the origin to the holder.
type replyPayload struct {
	Key       floodKey
	Item      workload.ItemID
	Holder    network.NodeID
	Path      []network.NodeID
	ExpiresAt time.Duration
}

// retrievePayload asks the holder to turn in the item.
type retrievePayload struct {
	Key  floodKey
	Item workload.ItemID
	// Origin lets the holder route the data back and apply the
	// cooperative-admission LRU touch for TCG members.
	Origin network.NodeID
	Path   []network.NodeID
}

// dataPayload carries the item from the holder to the requester.
type dataPayload struct {
	Key      floodKey
	Item     workload.ItemID
	Provider network.NodeID
	// RetrievedAt and ExpiresAt describe the provider copy's consistency
	// contract; the staleness oracle checks served hits against them.
	RetrievedAt time.Duration
	ExpiresAt   time.Duration
}

// relayedPayload is the multi-hop envelope: the inner message is forwarded
// hop by hop along Path; Idx is the position of the current receiver.
type relayedPayload struct {
	Path  []network.NodeID
	Idx   int
	Inner network.Message
}

// beginRequest starts one client request for item.
func (h *Host) beginRequest(item workload.ItemID) {
	now := h.k.Now()
	h.observeActivity(now)
	h.seq++
	h.cur = &pendingRequest{seq: h.seq, item: item, start: now, deadlineAt: now + h.cfg.Resilience.Deadline}
	if a := h.audit(); a != nil {
		a.RequestBegan(now, h.id, h.seq, item)
	}

	if e := h.cache.Get(item, now); e != nil {
		if e.Valid(now) {
			// Local cache hit; a donated copy earns permanent residence.
			e.SingletTTL = h.cfg.ReplaceDelay
			e.Donated = false
			if a := h.audit(); a != nil {
				a.HitServed(now, h.id, h.id, item, OutcomeLocalHit, e.RetrievedAt, e.RetrievedAt+e.TTL)
			}
			h.complete(OutcomeLocalHit)
			return
		}
		// Expired copy: validate with the MSS (Section IV.F).
		h.validateWithServer(item, e.RetrievedAt)
		return
	}

	if !h.traits.PeerSearch {
		h.goToServer(item)
		return
	}

	if h.traits.Filtering && !h.cfg.DisableFilter && h.peerVec.Members() > 0 {
		// Filtering mechanism: bypass the peer search when the peer
		// signature cannot cover the search signature. A host without any
		// collected member signature has no information to filter on and
		// falls back to the base COCA search.
		if !h.peerVec.CoversElement(uint64(item)) {
			h.collector.aux.FilterBypasses++
			h.goToServer(item)
			return
		}
	}
	h.broadcastSearch(item)
}

// broadcastSearch floods the P2P request and arms the adaptive timeout.
func (h *Host) broadcastSearch(item workload.ItemID) {
	p := h.cur
	now := h.k.Now()
	p.phase = phaseWaitReply
	p.broadcastAt = now
	payload := requestPayload{
		Key:      floodKey{origin: h.id, seq: p.seq},
		Item:     item,
		HopsLeft: h.cfg.HopDist,
	}
	if h.traits.Signatures {
		payload.SigInsert, payload.SigEvict = h.drainSigDelta()
	}
	h.medium.Broadcast(network.Message{
		Kind:    network.KindRequest,
		From:    h.id,
		Size:    network.RequestSize,
		Payload: payload,
	})
	p.timeout = h.k.Schedule(h.capToDeadline(p, h.searchTimeout()), func() {
		if h.cur == p && p.phase == phaseWaitReply {
			h.collector.aux.PeerTimeouts++
			h.goToServer(item)
		}
	})
}

// searchTimeout returns τ: adaptive once enough samples exist, otherwise
// the scaled default round-trip estimate of Section III.
func (h *Host) searchTimeout() time.Duration {
	if h.cfg.FixedTimeout > 0 {
		return h.cfg.FixedTimeout
	}
	if h.tau.Count() >= 5 {
		t := time.Duration(h.tau.Mean() + h.cfg.TimeoutStdDevFactor*h.tau.StdDev())
		if t < time.Millisecond {
			t = time.Millisecond
		}
		return t
	}
	rt := network.TxTime(network.RequestSize+network.ReplySize, h.cfg.P2PBandwidthKbps)
	return time.Duration(float64(rt) * float64(h.cfg.HopDist) * h.cfg.InitialTimeoutFactor)
}

// dataTimeout bounds the retrieve→data exchange.
func (h *Host) dataTimeout() time.Duration {
	tx := network.TxTime(network.RetrieveSize+network.HeaderSize+h.cfg.DataSize, h.cfg.P2PBandwidthKbps)
	t := time.Duration(float64(tx) * float64(h.cfg.HopDist) * h.cfg.InitialTimeoutFactor)
	if t < 10*time.Millisecond {
		t = 10 * time.Millisecond
	}
	return t
}

// handlePeerRequest serves or forwards another host's search broadcast.
func (h *Host) handlePeerRequest(msg network.Message) {
	payload, ok := msg.Payload.(requestPayload)
	if !ok || payload.Key.origin == h.id {
		return
	}
	// A request its origin sent with one hop is never forwarded, and the
	// origin broadcasts each key once, so this host hears it only once:
	// only forwarded or multi-hop requests need the duplicate check.
	if payload.HopsLeft > 1 || msg.From != payload.Key.origin {
		if _, dup := h.seenFloods[payload.Key]; dup {
			return
		}
		if h.seenFloods == nil {
			h.seenFloods = make(map[floodKey]struct{})
		}
		h.seenFloods[payload.Key] = struct{}{}
		if len(h.seenFloods) > 1<<14 {
			h.seenFloods = nil
		}
	}

	// Apply the piggybacked signature delta when the origin is a TCG
	// member.
	if h.traits.Signatures && h.tcg[payload.Key.origin] {
		h.applySigDelta(payload.Key.origin, payload.SigInsert, payload.SigEvict)
	}

	now := h.k.Now()
	if e := h.cache.Peek(payload.Item); e != nil && e.Valid(now) {
		// Reply to the origin over the reverse path.
		forward := append(append([]network.NodeID{}, payload.Path...), h.id)
		h.sendRouted(reversePath(forward, payload.Key.origin), network.Message{
			Kind: network.KindReply,
			From: h.id,
			Size: network.ReplySize,
			Payload: replyPayload{
				Key:       payload.Key,
				Item:      payload.Item,
				Holder:    h.id,
				Path:      forward,
				ExpiresAt: e.RetrievedAt + e.TTL,
			},
		})
		return
	}
	// Not cached: extend the flood if hops remain.
	if payload.HopsLeft > 1 {
		fwd := payload
		fwd.HopsLeft--
		fwd.Path = append(append([]network.NodeID{}, payload.Path...), h.id)
		// Forwarders do not re-piggyback the origin's signature delta.
		fwd.SigInsert, fwd.SigEvict = nil, nil
		h.medium.Broadcast(network.Message{
			Kind:    network.KindRequest,
			From:    h.id,
			Size:    network.RequestSize,
			Payload: fwd,
		})
	}
}

// handleReply processes peer replies: the first reply selects the target
// peer; later replies arriving before the data are retained for the
// longest-TTL touch selection.
func (h *Host) handleReply(msg network.Message) {
	payload, ok := msg.Payload.(replyPayload)
	if !ok {
		return
	}
	p := h.cur
	if p == nil || payload.Key != (floodKey{origin: h.id, seq: p.seq}) {
		return // stale reply for an old request
	}
	if p.phase == phaseWaitData {
		p.replies = append(p.replies, payload)
		return
	}
	if p.phase != phaseWaitReply {
		return
	}
	// Record the measured search duration τ for the adaptive timeout.
	h.tau.Add(float64(h.k.Now() - p.broadcastAt))
	p.timeout.Cancel()
	p.phase = phaseWaitData
	p.provider = payload.Holder
	p.replyPath = payload.Path
	p.replies = append(p.replies, payload)
	p.tried = map[network.NodeID]bool{payload.Holder: true}
	h.sendRouted(payload.Path, network.Message{
		Kind: network.KindRetrieve,
		From: h.id,
		Size: network.RetrieveSize,
		Payload: retrievePayload{
			Key:    payload.Key,
			Item:   payload.Item,
			Origin: h.id,
			Path:   payload.Path,
		},
	})
	to := h.capToDeadline(p, h.dataTimeout())
	p.timeout = h.k.Schedule(to, func() { h.dataTimeoutFired(p) })
	h.armHedge(p, to)
}

// dataTimeoutFired handles an expired retrieve→data exchange: while the
// retrieve-retry cap and the retry budget both allow it and another
// holder replied, the retrieve is re-issued to the untried holder with
// the freshest copy, backing off per attempt; otherwise the request falls
// back to the MSS.
func (h *Host) dataTimeoutFired(p *pendingRequest) {
	if h.cur != p || p.phase != phaseWaitData {
		return
	}
	if h.deadlineExpired(p) {
		h.failDeadline(p)
		return
	}
	if h.allowRetry(p, p.retrieveAttempts, h.cfg.Resilience.RetrieveRetries) {
		if alt := p.nextHolder(); alt != nil {
			p.retrieveAttempts++
			h.collector.aux.RetrieveRetries++
			h.spendRetryBudget(p, "retrieve-retry")
			p.tried[alt.Holder] = true
			p.provider = alt.Holder
			p.replyPath = alt.Path
			h.sendRouted(alt.Path, network.Message{
				Kind: network.KindRetrieve,
				From: h.id,
				Size: network.RetrieveSize,
				Payload: retrievePayload{
					Key:    alt.Key,
					Item:   alt.Item,
					Origin: h.id,
					Path:   alt.Path,
				},
			})
			backoff := h.backoff(p, h.dataTimeout(), p.retrieveAttempts)
			p.timeout = h.k.Schedule(backoff, func() { h.dataTimeoutFired(p) })
			return
		}
	}
	h.collector.aux.PeerTimeouts++
	h.goToServer(p.item)
}

// nextHolder selects the untried reply with the freshest copy (longest
// expiry, ties broken by arrival order), or nil when every replying
// holder has been asked.
func (p *pendingRequest) nextHolder() *replyPayload {
	var best *replyPayload
	for i := range p.replies {
		r := &p.replies[i]
		if p.tried[r.Holder] {
			continue
		}
		if best == nil || r.ExpiresAt > best.ExpiresAt {
			best = r
		}
	}
	return best
}

// handleRetrieve turns in the requested item to the origin.
func (h *Host) handleRetrieve(msg network.Message) {
	payload, ok := msg.Payload.(retrievePayload)
	if !ok {
		return
	}
	now := h.k.Now()
	e := h.cache.Peek(payload.Item)
	if e == nil || !e.Valid(now) {
		return // evicted or expired since the reply; origin's timeout recovers
	}
	h.sendRouted(reversePath(payload.Path, payload.Origin), network.Message{
		Kind: network.KindData,
		From: h.id,
		Size: network.HeaderSize + h.cfg.DataSize,
		Payload: dataPayload{
			Key:         payload.Key,
			Item:        payload.Item,
			Provider:    h.id,
			RetrievedAt: e.RetrievedAt,
			ExpiresAt:   e.RetrievedAt + e.TTL,
		},
	})
}

// handleData completes the outstanding request with a global cache hit.
func (h *Host) handleData(msg network.Message) {
	payload, ok := msg.Payload.(dataPayload)
	if !ok {
		return
	}
	p := h.cur
	if p == nil || p.phase != phaseWaitData || payload.Key != (floodKey{origin: h.id, seq: p.seq}) {
		return
	}
	p.timeout.Cancel()
	now := h.k.Now()
	ttl := payload.ExpiresAt - now
	if ttl < 0 {
		ttl = 0
	}
	h.collector.recordProvider(h.id, payload.Provider)
	if a := h.audit(); a != nil {
		a.HitServed(now, h.id, payload.Provider, payload.Item, OutcomeGlobalHit, payload.RetrievedAt, payload.ExpiresAt)
	}
	fromTCG := h.traits.CoopAdmission && h.tcg[payload.Provider]
	h.admit(payload.Item, now, ttl, fromTCG)
	if h.traits.Signatures {
		h.peerAccessLog = append(h.peerAccessLog, payload.Item)
	}
	if h.traits.CoopAdmission {
		h.touchLongestTTLMember(p)
	}
	h.complete(OutcomeGlobalHit)
}

// touchLongestTTLMember implements the cooperative admission refinement:
// among the TCG members that replied with a valid copy, the one holding the
// copy with the longest TTL refreshes its last access timestamp, retaining
// that copy longest in the global cache.
func (h *Host) touchLongestTTLMember(p *pendingRequest) {
	if h.cfg.DisableAdmission {
		return
	}
	var best *replyPayload
	for i := range p.replies {
		r := &p.replies[i]
		if !h.tcg[r.Holder] {
			continue
		}
		if best == nil || r.ExpiresAt > best.ExpiresAt {
			best = r
		}
	}
	if best == nil {
		return
	}
	h.sendRouted(best.Path, network.Message{
		Kind:    network.KindTouch,
		From:    h.id,
		Size:    network.ControlSize,
		Payload: touchPayload{Item: p.item, Origin: h.id},
	})
}

// touchPayload asks the selected TCG member to refresh a served item's
// last access timestamp.
type touchPayload struct {
	Item   workload.ItemID
	Origin network.NodeID
}

// handleTouch refreshes the recency of a copy this host serves to its TCG.
func (h *Host) handleTouch(msg network.Message) {
	payload, ok := msg.Payload.(touchPayload)
	if !ok || !h.traits.CoopAdmission || !h.tcg[payload.Origin] {
		return
	}
	now := h.k.Now()
	if e := h.cache.Peek(payload.Item); e != nil && e.Valid(now) {
		h.cache.Touch(payload.Item, now)
		e.SingletTTL = h.cfg.ReplaceDelay
	}
}

// inServiceArea reports whether the host can currently reach the MSS.
func (h *Host) inServiceArea(now time.Duration) bool {
	if h.cfg.ServiceRadius <= 0 {
		return true
	}
	center := geo.Point{X: h.cfg.ServiceCenterX, Y: h.cfg.ServiceCenterY}
	return geo.WithinRange(h.Position(now), center, h.cfg.ServiceRadius)
}

// goToServer falls back to the MSS for the outstanding request. Outside the
// MSS service area the request is an access failure.
func (h *Host) goToServer(item workload.ItemID) {
	p := h.cur
	if p == nil {
		return
	}
	p.cancelTimers()
	now := h.k.Now()
	if h.deadlineExpired(p) {
		h.failDeadline(p)
		return
	}
	if !h.inServiceArea(now) {
		p.cause = "out-of-service-area"
		h.complete(OutcomeFailure)
		return
	}
	// Push/hybrid delivery: when the item is on the broadcast disk, tune
	// in and wait for its slot instead of pulling.
	if h.cfg.Delivery != DeliveryPull && h.disk != nil && h.disk.Contains(item) {
		h.tuneToBroadcast(item)
		return
	}
	h.sendPull(item, now)
}

// sendPull issues the point-to-point request of the pull environment.
func (h *Host) sendPull(item workload.ItemID, now time.Duration) {
	p := h.cur
	if p == nil {
		return
	}
	if !h.serverGate(p, now) {
		return
	}
	p.phase = phaseWaitServer
	h.lastServerContact = now
	h.link.SendUp(network.Message{
		Kind: network.KindServerRequest,
		From: h.id,
		Size: network.RequestSize,
		Payload: server.RequestPayload{
			Item:         item,
			Location:     h.Position(now),
			PeerAccesses: h.samplePeerAccesses(),
		},
	})
	h.armServerRescue(p, phaseWaitServer, func() { h.sendPull(item, h.k.Now()) })
}

// armServerRescue schedules the lost-exchange recovery timer: if the MSS
// reply has not arrived after a queue-aware round-trip estimate, backed
// off per attempt, the exchange is re-issued (the request or reply was
// destroyed in transit), and once the server-retry cap or the retry
// budget is exhausted the request is declared an access failure instead
// of stalling the host forever. A fired rescue is also the breaker's
// failure signal for the MSS link.
func (h *Host) armServerRescue(p *pendingRequest, want phase, resend func()) {
	to := h.backoff(p, h.serverRescueTimeout(), p.serverAttempts)
	p.timeout = h.k.Schedule(to, func() { h.serverRescueFired(p, want, resend) })
}

// serverRescueTimeout estimates how long a full MSS exchange can take
// given the current uplink and downlink backlog: every queued uplink
// request ahead of ours must be sent and will enqueue its own reply ahead
// of ours on the downlink. The estimate is scaled by the rescue factor
// and floored (queues drain, timers do not re-measure).
func (h *Host) serverRescueTimeout() time.Duration {
	upTx, _ := h.link.TxTimes(network.RequestSize)
	_, downTx := h.link.TxTimes(network.HeaderSize + h.cfg.DataSize)
	upAhead := time.Duration(h.link.UplinkQueue() + 1)
	downAhead := time.Duration(h.link.UplinkQueue() + h.link.DownlinkQueue() + 2)
	factor := h.cfg.ServerRescueFactor
	if factor < 1 {
		factor = 3
	}
	t := time.Duration(float64(upTx*upAhead+downTx*downAhead) * factor)
	if t < 200*time.Millisecond {
		t = 200 * time.Millisecond
	}
	return t
}

// tuneToBroadcast waits for the item's slot on the broadcast disk.
func (h *Host) tuneToBroadcast(item workload.ItemID) {
	p := h.cur
	p.phase = phaseWaitBroadcast
	h.collector.aux.TuneIns++
	h.disk.Tune(h.id, item,
		func(ttl, _ time.Duration) {
			if h.cur != p || p.phase != phaseWaitBroadcast {
				return
			}
			h.collector.aux.BroadcastDeliveries++
			h.admit(item, h.k.Now(), ttl, false)
			h.complete(OutcomeServerRequest)
		},
		func() {
			if h.cur != p || p.phase != phaseWaitBroadcast {
				return
			}
			// The item fell off the schedule: fall back to pulling.
			h.collector.aux.BroadcastDrops++
			h.sendPull(item, h.k.Now())
		},
	)
}

// validateWithServer checks a TTL-expired cached copy with the MSS; outside
// the service area the copy cannot be validated and the request fails.
func (h *Host) validateWithServer(item workload.ItemID, retrievedAt time.Duration) {
	p := h.cur
	now := h.k.Now()
	if !h.inServiceArea(now) {
		p.cause = "out-of-service-area"
		h.complete(OutcomeFailure)
		return
	}
	if !h.serverGate(p, now) {
		return
	}
	p.phase = phaseWaitValidate
	h.lastServerContact = now
	h.collector.aux.Validations++
	h.link.SendUp(network.Message{
		Kind: network.KindValidate,
		From: h.id,
		Size: network.ValidateSize,
		Payload: server.ValidatePayload{
			Item:        item,
			RetrievedAt: retrievedAt,
			Location:    h.Position(now),
		},
	})
	h.armServerRescue(p, phaseWaitValidate, func() { h.validateWithServer(item, retrievedAt) })
}

// handleServerReply processes a full data reply from the MSS.
func (h *Host) handleServerReply(msg network.Message) {
	payload, ok := msg.Payload.(server.ReplyPayload)
	if !ok {
		return
	}
	h.applyMembershipChanges(payload.Changes)
	p := h.cur
	if p == nil || p.item != payload.Item {
		return
	}
	now := h.k.Now()
	switch {
	case p.phase == phaseWaitServer:
		h.breakerSuccess(now)
		h.admit(payload.Item, now, payload.TTL, false)
		h.complete(OutcomeServerRequest)
	case p.phase == phaseWaitValidate && payload.Refresh:
		h.breakerSuccess(now)
		h.collector.aux.Refreshes++
		// Replace the stale copy in place.
		if old := h.cache.Remove(payload.Item); old != nil {
			h.sigRemove(payload.Item)
		}
		h.admit(payload.Item, now, payload.TTL, false)
		h.complete(OutcomeServerRequest)
	}
}

// handleValidateOK renews a validated copy's lifetime.
func (h *Host) handleValidateOK(msg network.Message) {
	payload, ok := msg.Payload.(server.ValidateOKPayload)
	if !ok {
		return
	}
	h.applyMembershipChanges(payload.Changes)
	p := h.cur
	if p == nil || p.phase != phaseWaitValidate || p.item != payload.Item {
		return
	}
	now := h.k.Now()
	h.breakerSuccess(now)
	if e := h.cache.Peek(payload.Item); e != nil {
		e.RetrievedAt = now
		e.TTL = payload.TTL
		e.SingletTTL = h.cfg.ReplaceDelay
		if a := h.audit(); a != nil {
			// The renewal is a fresh contract; the validated copy then
			// serves the request as a local hit.
			a.CopyAdmitted(now, h.id, payload.Item, payload.TTL)
			a.HitServed(now, h.id, h.id, payload.Item, OutcomeLocalHit, now, now+payload.TTL)
		}
	}
	h.complete(OutcomeLocalHit)
}

// sendRouted delivers a message over the hop path; a single-hop path is a
// plain point-to-point send, longer paths use the relay envelope.
func (h *Host) sendRouted(path []network.NodeID, inner network.Message) {
	if len(path) == 0 {
		return
	}
	if len(path) == 1 {
		inner.To = path[0]
		h.medium.Send(inner)
		return
	}
	h.medium.Send(network.Message{
		Kind:    inner.Kind,
		From:    h.id,
		To:      path[0],
		Size:    inner.Size,
		Payload: relayedPayload{Path: path, Idx: 0, Inner: inner},
	})
}

// handleRelayed unwraps relay envelopes, forwarding when this host is an
// intermediate hop and handling the inner message at the final hop.
func (h *Host) handleRelayed(msg network.Message, handle func(network.Message)) {
	payload, ok := msg.Payload.(relayedPayload)
	if !ok {
		handle(msg) // direct single-hop message
		return
	}
	if payload.Idx >= len(payload.Path)-1 {
		handle(payload.Inner)
		return
	}
	next := payload.Path[payload.Idx+1]
	h.medium.Send(network.Message{
		Kind:    msg.Kind,
		From:    h.id,
		To:      next,
		Size:    msg.Size,
		Payload: relayedPayload{Path: payload.Path, Idx: payload.Idx + 1, Inner: payload.Inner},
	})
}

// reversePath converts the forward path origin→…→holder into the path a
// message travels from the holder back to the origin.
func reversePath(forward []network.NodeID, origin network.NodeID) []network.NodeID {
	// forward = [h1, h2, ..., holder]; back = [h_{n-1}, ..., h1, origin].
	out := make([]network.NodeID, 0, len(forward))
	for i := len(forward) - 2; i >= 0; i-- {
		out = append(out, forward[i])
	}
	return append(out, origin)
}
