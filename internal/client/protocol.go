package client

import (
	"slices"
	"time"

	"repro/internal/geo"
	"repro/internal/network"
	"repro/internal/workload"
)

// The P2P search exchange carries its content in network.Message's
// scalar fields: a request names its Origin, Seq, Item and the Hops it
// has left; a reply or data message names the holder as Origin and the
// offered copy's RetrievedAt and TTL; a retrieve or touch names the
// requesting Origin. A message that crosses several hops carries a
// *route in Extra; a request from its origin may carry a *sigDelta there
// instead.

// route is the bulky part of a message on a multi-hop path: the hops it
// visits, its final receiver last (Message.Hops is the current
// receiver's place), and the search path origin→holder, excluding the
// origin, that a forwarded request, a reply or a retrieve carries.
type route struct {
	hops []network.NodeID
	path []network.NodeID
}

// peerReply is a reply remembered for the outstanding search: the holder
// of a valid copy, the search path to it (nil when the holder is one hop
// away) and when its copy expires.
type peerReply struct {
	holder    network.NodeID
	path      []network.NodeID
	expiresAt time.Duration
}

// searchPath returns the search path a message carries, or nil.
func searchPath(msg *network.Message) []network.NodeID {
	if r, ok := msg.Extra.(*route); ok {
		return r.path
	}
	return nil
}

// beginRequest starts one client request for item.
//
//hot:every request; 0 allocs/op pinned by TestRequestPathAllocs
func (h *Host) beginRequest(item workload.ItemID) {
	now := h.k.Now()
	h.observeActivity(now)
	h.seq++
	// Reuse the record, keeping the arrays of its reply and holder lists.
	p := &h.req
	*p = pendingRequest{
		seq:        h.seq,
		item:       item,
		start:      now,
		deadlineAt: now + h.cfg.Resilience.Deadline,
		replies:    p.replies[:0],
		tried:      p.tried[:0],
	}
	h.cur = p
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
		p.validateAt = e.RetrievedAt
		h.validateWithServer()
		return
	}

	if !h.traits.PeerSearch {
		h.goToServer()
		return
	}

	if h.traits.Signatures && !h.cfg.DisableFilter && h.peerVec.Members() > 0 {
		// Filtering mechanism: bypass the peer search when the peer
		// signature cannot cover the search signature. A host without any
		// collected member signature has no information to filter on and
		// falls back to the base COCA search.
		if !h.peerVec.CoversElement(uint64(item)) {
			h.collector.aux.FilterBypasses++
			h.goToServer()
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
	msg := network.Message{
		Kind:   network.KindRequest,
		From:   h.id,
		Size:   network.RequestSize,
		Item:   item,
		Seq:    p.seq,
		Origin: h.id,
		Hops:   int32(h.cfg.HopDist),
	}
	if h.traits.Signatures {
		d := &h.delta
		if !h.reusePiggyback() {
			d = &sigDelta{}
		}
		if d.insert, d.evict = h.ownSig.Delta(d.insert, d.evict); len(d.insert) > 0 || len(d.evict) > 0 {
			msg.Extra = d
		}
	}
	h.medium.Broadcast(msg)
	p.timeout = h.k.Schedule(h.capToDeadline(p, h.searchTimeout()), h.timeoutFn)
}

// timeoutFired runs the outstanding request's timer for the phase that
// armed it: after τ without a reply the search falls back to the MSS.
func (h *Host) timeoutFired() {
	p := h.cur
	if p == nil {
		return
	}
	switch p.phase {
	case phaseWaitReply:
		h.collector.aux.PeerTimeouts++
		h.goToServer()
	case phaseWaitData:
		h.dataTimeoutFired(p)
	case phaseWaitServer, phaseWaitValidate:
		h.serverRescueFired(p)
	}
}

// The timeout factors of Section III, fixed by Table II: the adaptive
// search timeout is τ = τ̄ + ϕ′·σ_τ, and before τ has samples the search
// and data timeouts scale the hop count's transmission time by ϕ.
const (
	initialTimeoutFactor = 2 // ϕ
	timeoutStdDevFactor  = 3 // ϕ′
)

// searchTimeout returns τ: adaptive once enough samples exist, otherwise
// the scaled default round-trip estimate of Section III.
func (h *Host) searchTimeout() time.Duration {
	if h.cfg.FixedTimeout > 0 {
		return h.cfg.FixedTimeout
	}
	if h.tau.Count() >= 5 {
		t := time.Duration(h.tau.Mean() + timeoutStdDevFactor*h.tau.StdDev())
		if t < time.Millisecond {
			t = time.Millisecond
		}
		return t
	}
	rt := network.TxTime(network.RequestSize+network.ReplySize, h.cfg.P2PBandwidthKbps)
	return time.Duration(float64(rt) * float64(h.cfg.HopDist) * initialTimeoutFactor)
}

// dataTimeout bounds the retrieve→data exchange.
func (h *Host) dataTimeout() time.Duration {
	tx := network.TxTime(network.RetrieveSize+network.HeaderSize+h.cfg.DataSize, h.cfg.P2PBandwidthKbps)
	t := time.Duration(float64(tx) * float64(h.cfg.HopDist) * initialTimeoutFactor)
	if t < 10*time.Millisecond {
		t = 10 * time.Millisecond
	}
	return t
}

// handlePeerRequest serves or forwards another host's search broadcast.
//
//hot:every search broadcast a host hears; 0 allocs/op pinned by TestRequestPathAllocs
func (h *Host) handlePeerRequest(msg *network.Message) {
	if msg.Origin == h.id {
		return
	}
	// A request its origin sent with one hop is never forwarded, and the
	// origin broadcasts each key once, so this host hears it only once:
	// only forwarded or multi-hop requests need the duplicate check.
	if msg.Hops > 1 || msg.From != msg.Origin {
		key := floodKey{origin: msg.Origin, seq: msg.Seq}
		if _, dup := h.seenFloods[key]; dup {
			return
		}
		h.seenFloods[key] = struct{}{}
		if len(h.seenFloods) > 1<<14 {
			clear(h.seenFloods)
		}
	}

	// Apply the piggybacked signature delta when the origin is a TCG
	// member.
	if h.inTCG(msg.Origin) {
		if d, ok := msg.Extra.(*sigDelta); ok {
			h.applySigDelta(msg.Origin, d.insert, d.evict)
		}
	}

	now := h.k.Now()
	path := searchPath(msg)
	if e := h.cache.Peek(msg.Item); e != nil && e.Valid(now) {
		// Reply to the origin over the reverse path.
		reply := network.Message{
			Kind:        network.KindReply,
			From:        h.id,
			Size:        network.ReplySize,
			Item:        msg.Item,
			Seq:         msg.Seq,
			Origin:      h.id,
			RetrievedAt: e.RetrievedAt,
			TTL:         e.TTL,
		}
		var hops, forward []network.NodeID
		if len(path) > 0 {
			forward = append(path[:len(path):len(path)], h.id)
			hops = reversePath(forward, msg.Origin)
		}
		h.sendRouted(reply, msg.Origin, hops, forward)
		return
	}
	// Not cached: extend the flood if hops remain. Forwarders do not
	// re-piggyback the origin's signature delta. The forwarded copy is
	// the relay's own: the delivered message is never written.
	if msg.Hops > 1 {
		fwd := *msg
		fwd.From = h.id
		fwd.Hops--
		fwd.Extra = &route{path: append(path[:len(path):len(path)], h.id)}
		h.medium.Broadcast(fwd)
	}
}

// handleReply processes peer replies: the first reply selects the target
// peer; later replies arriving before the data are retained for the
// longest-TTL touch selection.
//
//hot:every reply to this host's searches; 0 allocs/op pinned by TestRequestPathAllocs
func (h *Host) handleReply(msg *network.Message) {
	p := h.cur
	if p == nil || msg.Seq != p.seq {
		return // stale reply for an old request
	}
	r := peerReply{holder: msg.Origin, path: searchPath(msg), expiresAt: msg.RetrievedAt + msg.TTL}
	if p.phase == phaseWaitData {
		p.replies = append(p.replies, r)
		return
	}
	if p.phase != phaseWaitReply {
		return
	}
	// Record the measured search duration τ for the adaptive timeout.
	h.tau.Add(float64(h.k.Now() - p.broadcastAt))
	p.timeout.Cancel()
	p.phase = phaseWaitData
	p.provider = r.holder
	p.replies = append(p.replies, r)
	p.tried = append(p.tried, r.holder)
	h.sendRetrieve(p, r)
	to := h.capToDeadline(p, h.dataTimeout())
	p.timeout = h.k.Schedule(to, h.timeoutFn)
	h.armHedge(p, to)
}

// sendRetrieve asks the holder of reply r to turn in the item.
func (h *Host) sendRetrieve(p *pendingRequest, r peerReply) {
	msg := network.Message{
		Kind:   network.KindRetrieve,
		From:   h.id,
		Size:   network.RetrieveSize,
		Item:   p.item,
		Seq:    p.seq,
		Origin: h.id,
	}
	h.sendRouted(msg, r.holder, r.path, r.path)
}

// dataTimeoutFired handles an expired retrieve→data exchange: while the
// retrieve-retry cap and the retry budget both allow it and another
// holder replied, the retrieve is re-issued to the untried holder with
// the freshest copy, backing off per attempt; otherwise the request falls
// back to the MSS.
func (h *Host) dataTimeoutFired(p *pendingRequest) {
	if h.deadlineExpired(p) {
		h.failDeadline(p)
		return
	}
	if h.allowRetry(p, p.retrieveAttempts, h.cfg.Resilience.RetrieveRetries) {
		if alt := p.nextHolder(); alt != nil {
			p.retrieveAttempts++
			h.collector.aux.RetrieveRetries++
			h.spendRetryBudget(p, "retrieve-retry")
			p.tried = append(p.tried, alt.holder)
			p.provider = alt.holder
			h.sendRetrieve(p, *alt)
			backoff := h.backoff(p, h.dataTimeout(), p.retrieveAttempts)
			p.timeout = h.k.Schedule(backoff, h.timeoutFn)
			return
		}
	}
	h.collector.aux.PeerTimeouts++
	h.goToServer()
}

// nextHolder selects the untried reply with the freshest copy (longest
// expiry, ties broken by arrival order), or nil when every replying
// holder has been asked.
func (p *pendingRequest) nextHolder() *peerReply {
	var best *peerReply
	for i := range p.replies {
		r := &p.replies[i]
		if slices.Contains(p.tried, r.holder) {
			continue
		}
		if best == nil || r.expiresAt > best.expiresAt {
			best = r
		}
	}
	return best
}

// handleRetrieve turns in the requested item to the origin.
//
//hot:every retrieve this host is asked to serve; 0 allocs/op pinned by TestRequestPathAllocs
func (h *Host) handleRetrieve(msg *network.Message) {
	now := h.k.Now()
	e := h.cache.Peek(msg.Item)
	if e == nil || !e.Valid(now) {
		return // evicted or expired since the reply; origin's timeout recovers
	}
	data := network.Message{
		Kind:        network.KindData,
		From:        h.id,
		Size:        network.HeaderSize + h.cfg.DataSize,
		Item:        msg.Item,
		Seq:         msg.Seq,
		Origin:      h.id,
		RetrievedAt: e.RetrievedAt,
		TTL:         e.TTL,
	}
	var hops []network.NodeID
	if path := searchPath(msg); path != nil {
		hops = reversePath(path, msg.Origin)
	}
	h.sendRouted(data, msg.Origin, hops, nil)
}

// handleData completes the outstanding request with a global cache hit.
//
//hot:every peer hit; 0 allocs/op pinned by TestRequestPathAllocs
func (h *Host) handleData(msg *network.Message) {
	p := h.cur
	if p == nil || p.phase != phaseWaitData || msg.Seq != p.seq {
		return
	}
	p.timeout.Cancel()
	now := h.k.Now()
	expiresAt := msg.RetrievedAt + msg.TTL
	ttl := expiresAt - now
	if ttl < 0 {
		ttl = 0
	}
	provider := msg.Origin
	h.collector.recordProvider(h.id, provider)
	if a := h.audit(); a != nil {
		a.HitServed(now, h.id, provider, msg.Item, OutcomeGlobalHit, msg.RetrievedAt, expiresAt)
	}
	h.admit(msg.Item, now, ttl, h.inTCG(provider))
	if h.traits.Signatures {
		h.peerAccessLog = append(h.peerAccessLog, msg.Item)
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
	var best *peerReply
	for i := range p.replies {
		r := &p.replies[i]
		if !h.inTCG(r.holder) {
			continue
		}
		if best == nil || r.expiresAt > best.expiresAt {
			best = r
		}
	}
	if best == nil {
		return
	}
	msg := network.Message{
		Kind:   network.KindTouch,
		From:   h.id,
		Size:   network.ControlSize,
		Item:   p.item,
		Origin: h.id,
	}
	h.sendRouted(msg, best.holder, best.path, nil)
}

// handleTouch refreshes the recency of a copy this host serves to its TCG.
//
//hot:every cooperative-admission touch this host receives
func (h *Host) handleTouch(msg *network.Message) {
	if !h.inTCG(msg.Origin) {
		return
	}
	now := h.k.Now()
	if e := h.cache.Peek(msg.Item); e != nil && e.Valid(now) {
		h.cache.Touch(msg.Item, now)
		e.SingletTTL = h.cfg.ReplaceDelay
	}
}

// inServiceArea reports whether the host can currently reach the MSS.
func (h *Host) inServiceArea(now time.Duration) bool {
	if h.cfg.ServiceAreaRadius <= 0 {
		return true
	}
	center := geo.Point{X: h.cfg.SpaceWidth / 2, Y: h.cfg.SpaceHeight / 2}
	return geo.WithinRange(h.Position(now), center, h.cfg.ServiceAreaRadius)
}

// goToServer falls back to the MSS for the outstanding request. Outside the
// MSS service area the request is an access failure.
func (h *Host) goToServer() {
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
	if h.cfg.Delivery != DeliveryPull && h.disk != nil && h.disk.Contains(p.item) {
		h.tuneToBroadcast()
		return
	}
	h.sendPull(now)
}

// sendPull issues the point-to-point request of the pull environment.
func (h *Host) sendPull(now time.Duration) {
	p := h.cur
	if p == nil {
		return
	}
	if !h.serverGate(p, now) {
		return
	}
	p.phase = phaseWaitServer
	h.lastServerContact = now
	msg := network.Message{
		Kind:     network.KindServerRequest,
		From:     h.id,
		Size:     network.RequestSize,
		Item:     p.item,
		Location: h.Position(now),
	}
	if sample := h.samplePeerAccesses(); sample != nil {
		msg.Extra = sample
	}
	h.link.SendUp(msg)
	h.armServerRescue(p)
}

// armServerRescue schedules the lost-exchange recovery timer: if the MSS
// reply has not arrived after a queue-aware round-trip estimate, backed
// off per attempt, the exchange is re-issued (the request or reply was
// destroyed in transit), and once the server-retry cap or the retry
// budget is exhausted the request is declared an access failure instead
// of stalling the host forever. A fired rescue is also the breaker's
// failure signal for the MSS link.
func (h *Host) armServerRescue(p *pendingRequest) {
	to := h.backoff(p, h.serverRescueTimeout(), p.serverAttempts)
	p.timeout = h.k.Schedule(to, h.timeoutFn)
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

// tuneToBroadcast waits for the item's slot on the broadcast disk. The
// disk hands the request's seq back to the callbacks: a crash abort
// leaves them registered, and the host's record by then serves a later
// request.
func (h *Host) tuneToBroadcast() {
	p := h.cur
	p.phase = phaseWaitBroadcast
	h.collector.aux.TuneIns++
	h.disk.Tune(h.id, p.item, p.seq, h.broadcastFn, h.broadcastDropFn)
}

// broadcastDelivered completes request seq with its item off the
// broadcast disk.
func (h *Host) broadcastDelivered(seq uint64, ttl, _ time.Duration) {
	p := h.cur
	if p == nil || p.seq != seq || p.phase != phaseWaitBroadcast {
		return
	}
	h.collector.aux.BroadcastDeliveries++
	h.admit(p.item, h.k.Now(), ttl, false)
	h.complete(OutcomeServerRequest)
}

// broadcastDropped falls back to pulling when request seq's item fell off
// the schedule.
func (h *Host) broadcastDropped(seq uint64) {
	p := h.cur
	if p == nil || p.seq != seq || p.phase != phaseWaitBroadcast {
		return
	}
	h.collector.aux.BroadcastDrops++
	h.sendPull(h.k.Now())
}

// validateWithServer checks the TTL-expired cached copy the outstanding
// request found with the MSS; outside the service area the copy cannot be
// validated and the request fails.
func (h *Host) validateWithServer() {
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
		Kind:        network.KindValidate,
		From:        h.id,
		Size:        network.ValidateSize,
		Item:        p.item,
		RetrievedAt: p.validateAt,
		Location:    h.Position(now),
	})
	h.armServerRescue(p)
}

// handleServerReply processes a full data reply from the MSS.
func (h *Host) handleServerReply(msg *network.Message) {
	h.applyMembershipChanges(membershipChanges(msg))
	p := h.cur
	if p == nil || p.item != msg.Item {
		return
	}
	now := h.k.Now()
	switch {
	case p.phase == phaseWaitServer:
		h.breakerSuccess(now)
		h.admit(msg.Item, now, msg.TTL, false)
		h.complete(OutcomeServerRequest)
	case p.phase == phaseWaitValidate && msg.Refresh:
		h.breakerSuccess(now)
		h.collector.aux.Refreshes++
		// Replace the stale copy in place.
		if old := h.cache.Remove(msg.Item); old != nil {
			h.sigRemove(msg.Item)
		}
		h.admit(msg.Item, now, msg.TTL, false)
		h.complete(OutcomeServerRequest)
	}
}

// handleValidateOK renews a validated copy's lifetime.
func (h *Host) handleValidateOK(msg *network.Message) {
	h.applyMembershipChanges(membershipChanges(msg))
	p := h.cur
	if p == nil || p.phase != phaseWaitValidate || p.item != msg.Item {
		return
	}
	now := h.k.Now()
	h.breakerSuccess(now)
	if e := h.cache.Peek(msg.Item); e != nil {
		e.RetrievedAt = now
		e.TTL = msg.TTL
		e.SingletTTL = h.cfg.ReplaceDelay
		if a := h.audit(); a != nil {
			// The renewal is a fresh contract; the validated copy then
			// serves the request as a local hit.
			a.CopyAdmitted(now, h.id, msg.Item, msg.TTL)
			a.HitServed(now, h.id, h.id, msg.Item, OutcomeLocalHit, now, now+msg.TTL)
		}
	}
	h.complete(OutcomeLocalHit)
}

// sendRouted sends msg to the peer to, one hop away, when hops is nil.
// Otherwise msg crosses hops carrying a *route with the hops and the
// search path, and each intermediate host forwards it (atFinalHop).
func (h *Host) sendRouted(msg network.Message, to network.NodeID, hops, path []network.NodeID) {
	msg.To = to
	if hops != nil {
		msg.To = hops[0]
		msg.Hops = 0
		msg.Extra = &route{hops: hops, path: path}
	}
	h.medium.Send(msg)
}

// atFinalHop forwards a message routed over several hops to its next hop
// and reports whether this host is its final receiver, as it is of every
// single-hop message. It forwards a copy: the delivered message is never
// written.
func (h *Host) atFinalHop(msg *network.Message) bool {
	r, ok := msg.Extra.(*route)
	if !ok || int(msg.Hops) >= len(r.hops)-1 {
		return true
	}
	fwd := *msg
	fwd.From = h.id
	fwd.Hops++
	fwd.To = r.hops[fwd.Hops]
	h.medium.Send(fwd)
	return false
}

// reversePath converts the forward path origin→…→holder into the path a
// message travels from the holder back to the origin.
func reversePath(forward []network.NodeID, origin network.NodeID) []network.NodeID {
	// forward = [h1, h2, ..., holder]; back = [h_{n-1}, ..., h1, origin].
	back := slices.Clone(forward)
	n := len(back)
	for i := 0; i < n-1; i++ {
		back[i] = forward[n-2-i]
	}
	back[n-1] = origin
	return back
}
