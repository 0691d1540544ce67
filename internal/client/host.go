package client

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/bloom"
	"repro/internal/cache"
	"repro/internal/geo"
	"repro/internal/mobility"
	"repro/internal/ndp"
	"repro/internal/network"
	"repro/internal/push"
	"repro/internal/resilience"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/strategy"
	"repro/internal/workload"
)

// phase tracks where the host's outstanding request is in the COCA state
// machine.
type phase int

const (
	phaseWaitReply phase = iota + 1
	phaseWaitData
	phaseWaitServer
	phaseWaitValidate
	phaseWaitBroadcast
)

// pendingRequest is the host's single outstanding request (the client model
// is closed-loop: think, request, complete, repeat). A host reuses one
// record for every request; seq tells its requests apart.
type pendingRequest struct {
	seq   uint64
	item  workload.ItemID
	start time.Duration
	phase phase
	// timeout is the phase's timer: τ while the search waits for a
	// reply, the data timeout while it waits for data, the rescue while
	// an MSS exchange is in flight.
	timeout     sim.Event
	broadcastAt time.Duration
	// validateAt is the retrieval time of the expired copy a validation
	// asks about.
	validateAt time.Duration
	provider   network.NodeID
	// replies collects every reply heard for this search (the first one
	// selects the provider; later ones feed the longest-TTL touch
	// selection of the cooperative admission protocol).
	replies []peerReply
	// tried lists holders already asked for the data, so retrieve
	// retries pick a fresh one.
	tried []network.NodeID
	// retrieveAttempts counts alternate-holder retries after data
	// timeouts; serverAttempts counts rescue re-sends of a lost MSS
	// exchange; budgetSpent counts both, against the retry budget.
	retrieveAttempts int
	serverAttempts   int
	budgetSpent      int
	// deadlineAt is the absolute request deadline (inert when the policy
	// sets none), hedge is the armed hedged-retrieve timer and hedged
	// marks that it fired.
	deadlineAt time.Duration
	hedge      sim.Event
	hedged     bool
	// cause attributes abnormal terminations for the audit feed.
	cause string
}

// cancelTimers cancels every timer the request holds; it is the single
// teardown point for complete, crash aborts and phase changes that
// re-arm. So a request timer that fires always belongs to the current
// request.
func (p *pendingRequest) cancelTimers() {
	p.timeout.Cancel()
	p.hedge.Cancel()
}

// Host is one mobile host. It is driven entirely by simulation events; all
// methods run on the kernel goroutine.
type Host struct {
	id network.NodeID
	k  *sim.Kernel
	// cfg is the run's parameter set, shared read-only by every host.
	cfg *Config
	// warmup and measured are the host's request quotas: the config's,
	// or smaller ones for a low-activity host.
	warmup, measured int
	// strat is the construction-time strategy dispatch derived from
	// cfg.Scheme via the registry, never mutated after New.
	strat     strategy.Scheme
	traits    strategy.Traits
	mob       mobility.Node
	medium    *network.Medium
	link      *network.ServerLink
	gen       *workload.Generator
	cache     *cache.LRU
	collector *Collector
	ndp       *ndp.Protocol

	// Each per-host stream is derived only when a run can draw from it:
	// rngDisc when DiscProb > 0, rngSample for schemes with signatures
	// (only they log peer-served items to sample), and rngResil, which
	// feeds backoff jitter, when the policy sets Jitter. Otherwise it
	// stays nil and costs no seeding.
	rngDisc   *sim.RNG
	rngSample *sim.RNG
	rngResil  *sim.RNG

	// breaker is the MSS server-link circuit breaker; nil unless the
	// policy sets BreakerFailures.
	breaker *resilience.Breaker

	// disk is the broadcast schedule for push/hybrid delivery; nil under
	// the default pull environment.
	disk *push.Disk

	completed int
	seq       uint64
	// cur is &req while a request is in flight and nil otherwise.
	cur *pendingRequest
	req pendingRequest

	// The callbacks the request path schedules, bound once in NewHost so
	// that scheduling one allocates nothing; explicitUpdateFn, the τ_P
	// tick, only for hosts with signatures. The timers read h.cur; the
	// broadcast-disk callbacks get the seq of the request that tuned in,
	// since a crash abort leaves them registered.
	nextReqFn, timeoutFn, hedgeFn, reconnectFn func()
	explicitUpdateFn                           func()
	broadcastFn                                push.DeliverFunc
	broadcastDropFn                            push.DropFunc

	// Scratch reused by the replacement window and signature rebuilds.
	cands    []*cache.Entry
	sigElems []uint64
	// beacon and delta are the records the host's hellos and search
	// broadcasts carry whenever its NIC holds no frame (reusePiggyback).
	beacon beaconInfo
	delta  sigDelta

	// Crash/recover churn (driven by the fault plan). The pending
	// next-request timer is tracked so a crash can cancel it and
	// recovery can re-issue the same item without disturbing the
	// workload stream.
	faults         *network.FaultPlan
	nextReqEv      sim.Event
	nextReqItem    workload.ItemID
	nextReqPending bool
	doneSent       bool

	// Adaptive P2P search timeout state (Welford over measured τ).
	tau stats.Welford

	// Spillover state: request activity estimate and neighbor beacon table.
	activityGap    stats.EWMA
	lastRequestAt  time.Duration
	neighborStates []neighborState // indexed by NodeID
	neighborHints  map[workload.ItemID]hintState

	// seenFloods deduplicates forwarded and multi-hop search floods. It is
	// emptied whole past 16,384 keys.
	seenFloods map[floodKey]struct{}

	// GroCoca state. tcg[id] marks TCG member id; the table spans the
	// NumClients host IDs and tcgSize counts its members.
	tcg               []bool
	tcgSize           int
	ownSig            *bloom.CountingFilter
	peerVec           *bloom.PeerVector
	haveSig           map[network.NodeID]*bloom.Filter
	outstandSig       map[network.NodeID]struct{}
	departures        int
	peerAccessLog     []workload.ItemID
	lastServerContact time.Duration
}

type floodKey struct {
	origin network.NodeID
	seq    uint64
}

var _ network.Peer = (*Host)(nil)

// NewHost builds a host that issues warmup then measured requests. The
// NDP protocol is created for cooperative schemes; SC hosts neither beacon
// nor answer peers. The host keeps cfg, which must not change afterwards,
// and derives its random streams from seed.
func NewHost(
	k *sim.Kernel,
	id network.NodeID,
	cfg *Config,
	warmup, measured int,
	mob mobility.Node,
	medium *network.Medium,
	link *network.ServerLink,
	gen *workload.Generator,
	collector *Collector,
	seed sim.Seed,
) (*Host, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	strat, ok := strategy.Lookup(cfg.Scheme)
	if !ok {
		// Unreachable after Validate, which requires a registered scheme.
		return nil, fmt.Errorf("client: unknown scheme %d", int(cfg.Scheme))
	}
	lru, err := cache.NewLRU(cfg.CacheSize)
	if err != nil {
		return nil, err
	}
	h := &Host{
		id:          id,
		k:           k,
		cfg:         cfg,
		warmup:      warmup,
		measured:    measured,
		strat:       strat,
		traits:      strat.Traits(),
		mob:         mob,
		medium:      medium,
		link:        link,
		gen:         gen,
		cache:       lru,
		collector:   collector,
		activityGap: stats.NewEWMA(0.3),
		seenFloods:  make(map[floodKey]struct{}),
	}
	h.nextReqFn = h.issueNextRequest
	h.timeoutFn = h.timeoutFired
	h.hedgeFn = h.hedgeFired
	h.reconnectFn = h.reconnect
	h.broadcastFn = h.broadcastDelivered
	h.broadcastDropFn = h.broadcastDropped
	if cfg.DiscProb > 0 {
		h.rngDisc = seed.Stream(fmt.Sprintf("disc-%d", id))
	}
	if h.traits.Signatures {
		h.rngSample = seed.Stream(fmt.Sprintf("sample-%d", id))
		h.explicitUpdateFn = h.explicitUpdateTick
	}
	if cfg.Resilience.Jitter > 0 {
		h.rngResil = seed.Stream(fmt.Sprintf("resil-%d", id))
	}
	if cfg.Resilience.BreakerFailures > 0 {
		h.breaker = resilience.NewBreaker(cfg.Resilience, func(at time.Duration, from, to resilience.State, cause string) {
			if to == resilience.Open {
				h.collector.aux.BreakerOpens++
			}
			if a := h.audit(); a != nil {
				a.BreakerTransition(at, h.id, from, to, cause)
			}
		})
	}
	if h.traits.PeerSearch {
		h.ndp = ndp.New(k, medium, id, h.ndpConfig())
	}
	if h.traits.Signatures {
		h.tcg = make([]bool, cfg.NumClients)
		h.haveSig = make(map[network.NodeID]*bloom.Filter)
		h.outstandSig = make(map[network.NodeID]struct{})
		h.ownSig, err = bloom.NewCountingFilter(cfg.SigBits, cfg.SigHashes, cacheCounterBits)
		if err != nil {
			return nil, err
		}
		h.peerVec, err = bloom.NewPeerVector(cfg.SigBits, cfg.SigHashes)
		if err != nil {
			return nil, err
		}
	}
	return h, nil
}

// ndpConfig is the host's NDP configuration: the GroCoca reconnection
// hook and the beacon payload.
func (h *Host) ndpConfig() ndp.Config {
	cfg := ndp.Config{OnUp: h.handleNeighborUp}
	if h.traits.Signatures || h.traits.NeighborHints || h.cfg.EnableSpillover {
		cfg.Beacon = h.beaconPayload
	}
	return cfg
}

// ID implements network.Peer.
func (h *Host) ID() network.NodeID { return h.id }

// Position returns the host's location at time t.
func (h *Host) Position(t time.Duration) geo.Point { return h.mob.Position(t) }

// Motion implements network.Peer by forwarding to the mobility model.
func (h *Host) Motion(t time.Duration) (geo.Point, time.Duration, float64) {
	return h.mob.Motion(t)
}

// Cache exposes the host's cache for tests and examples.
func (h *Host) Cache() *cache.LRU { return h.cache }

// SetBroadcastDisk attaches the push/hybrid broadcast schedule. It must be
// called before Start when the delivery model is not pull.
func (h *Host) SetBroadcastDisk(d *push.Disk) { h.disk = d }

// TCGSize reports the host's current TCG membership count (GroCoca only).
func (h *Host) TCGSize() int { return h.tcgSize }

// TCGMembers returns the host's current TCG member IDs (GroCoca only), in
// ascending ID order so downstream iteration is deterministic.
func (h *Host) TCGMembers() []network.NodeID {
	out := make([]network.NodeID, 0, h.tcgSize)
	for id, member := range h.tcg {
		if member {
			out = append(out, network.NodeID(id))
		}
	}
	return out
}

// inTCG reports whether peer is a TCG member. IDs outside the table, and
// every peer of a host without signatures, read as non-members.
func (h *Host) inTCG(peer network.NodeID) bool {
	return uint(peer) < uint(len(h.tcg)) && h.tcg[peer]
}

// CoversItem reports whether the host's peer signature covers the item —
// i.e. whether the filtering mechanism would search the peers for it.
func (h *Host) CoversItem(item workload.ItemID) bool {
	if h.peerVec == nil {
		return false
	}
	return h.peerVec.CoversElement(uint64(item))
}

// Completed reports how many requests the host has finished.
func (h *Host) Completed() int { return h.completed }

// Outstanding reports whether the host has an in-flight request. A true
// value after a run has ended indicates a stalled protocol state machine.
func (h *Host) Outstanding() bool { return h.cur != nil }

// SetFaultPlan attaches the fault plan driving this host's crash/recover
// churn. It must be called before Start.
func (h *Host) SetFaultPlan(p *network.FaultPlan) { h.faults = p }

// Start launches the host's NDP, explicit-update timer, and request loop.
func (h *Host) Start() {
	if h.ndp != nil {
		h.ndp.Start()
	}
	if h.traits.Signatures && h.cfg.ExplicitUpdateAfter > 0 {
		h.k.Schedule(h.cfg.ExplicitUpdateAfter, h.explicitUpdateFn)
	}
	if h.faults != nil && h.faults.CrashEnabled() {
		h.k.Schedule(h.faults.CrashDelay(h.id), h.crash)
	}
	h.scheduleNextRequest()
}

// totalRequests is the host's full quota including warm-up.
func (h *Host) totalRequests() int {
	return h.warmup + h.measured
}

func (h *Host) scheduleNextRequest() {
	if h.gen == nil {
		return // manually driven host (tests, examples)
	}
	if h.completed >= h.totalRequests() {
		// The guard keeps crash recovery from double-reporting a host
		// whose quota filled while its think timer raced a crash.
		if !h.doneSent {
			h.doneSent = true
			h.collector.hostDone()
		}
		return
	}
	item, think := h.gen.Next()
	h.nextReqItem = item
	h.nextReqPending = true
	h.nextReqEv = h.k.Schedule(think, h.nextReqFn)
}

// issueNextRequest fires when the think time scheduleNextRequest drew
// has passed.
func (h *Host) issueNextRequest() {
	h.nextReqPending = false
	h.beginRequest(h.nextReqItem)
}

// Preload inserts an item into the cache outside the protocol, maintaining
// the cache signature. It is intended for tests and example setups.
func (h *Host) Preload(item workload.ItemID, ttl time.Duration) error {
	now := h.k.Now()
	if h.cache.Peek(item) != nil {
		return nil
	}
	if h.cache.Full() {
		return fmt.Errorf("client: preload into full cache")
	}
	err := h.cache.Add(cache.Entry{
		ID:          item,
		Size:        h.cfg.DataSize,
		RetrievedAt: now,
		TTL:         ttl,
		LastAccess:  now,
		SingletTTL:  h.cfg.ReplaceDelay,
	})
	if err != nil {
		return err
	}
	h.sigInsert(item)
	if a := h.audit(); a != nil {
		a.CopyAdmitted(now, h.id, item, ttl)
	}
	return nil
}

// complete finishes the outstanding request, records it if measured, runs
// the disconnection model, and schedules the next request.
func (h *Host) complete(outcome Outcome) {
	p := h.cur
	h.cur = nil
	if p == nil {
		return
	}
	p.cancelTimers()
	h.finish(p, outcome)
	// Client disconnection: with probability P_disc, leave the network for
	// DiscTime before the next request.
	if h.rngDisc != nil && h.rngDisc.Bool(h.cfg.DiscProb) {
		h.disconnect()
		return
	}
	h.scheduleNextRequest()
}

// finish records the terminal outcome of request p and advances the
// completion bookkeeping shared by complete and crash aborts.
func (h *Host) finish(p *pendingRequest, outcome Outcome) {
	now := h.k.Now()
	if a := h.audit(); a != nil {
		a.RequestEnded(now, h.id, p.seq, p.item, outcome, p.cause, now-p.start)
	}
	h.completed++
	if h.completed == h.warmup {
		h.collector.hostWarm(now, h.measured)
	}
	if h.warmup == 0 && h.completed == 1 {
		// No warm-up: the first completion flips the host warm.
		h.collector.hostWarm(now, h.measured)
	}
	if h.completed > h.warmup && h.collector.allWarm() {
		h.collector.record(now, h.id, outcome, now-p.start)
	}
}

// crash is the involuntary counterpart of disconnect: the host drops off
// the air mid-anything, loses its in-flight request state (recorded as an
// access failure), and recovers after the plan's downtime draw. Crashes
// landing during a voluntary disconnection are deferred — an unobservable
// crash would only perturb the churn schedule.
func (h *Host) crash() {
	if h.faults == nil || !h.faults.CrashEnabled() {
		return
	}
	if !h.medium.Connected(h.id) {
		h.k.Schedule(h.faults.CrashDelay(h.id), h.crash)
		return
	}
	h.collector.aux.Crashes++
	h.setConnected(false)
	// Keep nextReqPending: recovery re-issues the same item.
	h.nextReqEv.Cancel()
	if a := h.audit(); a != nil {
		a.FaultEvent(h.k.Now(), h.id, "crash")
	}
	if p := h.cur; p != nil {
		h.cur = nil
		p.cancelTimers()
		if h.breaker != nil {
			// A crashed request can be the half-open probe; free the slot
			// without judging the link.
			h.breaker.AbortProbe(h.k.Now())
		}
		h.collector.aux.CrashAborts++
		p.cause = "crash-abort"
		h.finish(p, OutcomeFailure)
	}
	h.k.Schedule(h.faults.CrashDowntime(h.id), h.recoverFromCrash)
}

// recoverFromCrash brings the host back: NDP restarts, GroCoca re-collects
// the TCG cache signatures lost with the crash (Section IV.D.5's
// reconnection protocol), and the request loop resumes — with the item
// whose think timer the crash cancelled, if any.
func (h *Host) recoverFromCrash() {
	h.setConnected(true)
	if h.traits.Signatures {
		h.reconnectSignatures()
	}
	h.k.Schedule(h.faults.CrashDelay(h.id), h.crash)
	if h.nextReqPending {
		h.nextReqPending = false
		h.beginRequest(h.nextReqItem)
		return
	}
	h.scheduleNextRequest()
}

// setConnected puts the host on the air (on) or takes it off: the medium
// records it, and NDP starts or stops with it.
func (h *Host) setConnected(on bool) {
	h.medium.SetConnected(h.id, on)
	if h.ndp == nil {
		return
	}
	if on {
		h.ndp.Start()
	} else {
		h.ndp.Stop()
	}
}

// disconnect takes the host off the air and schedules its reconnection.
func (h *Host) disconnect() {
	h.setConnected(false)
	length := h.rngDisc.UniformDuration(h.cfg.DiscMin, h.cfg.DiscMax)
	h.k.Schedule(length, h.reconnectFn)
}

// reconnect restores connectivity and runs the GroCoca client
// disconnection handling protocol of Section IV.D.5.
func (h *Host) reconnect() {
	h.setConnected(true)
	if h.traits.Signatures {
		h.reconnectSignatures()
	}
	h.scheduleNextRequest()
}

// explicitUpdateTick sends the explicit location/access report after τ_P of
// server silence (GroCoca).
func (h *Host) explicitUpdateTick() {
	now := h.k.Now()
	if h.medium.Connected(h.id) && now-h.lastServerContact >= h.cfg.ExplicitUpdateAfter && h.inServiceArea(now) {
		h.sendLocationUpdate(now)
	}
	if h.completed < h.totalRequests() {
		h.k.Schedule(h.cfg.ExplicitUpdateAfter, h.explicitUpdateFn)
	}
}

// sendLocationUpdate reports the host's location and a ρ_P sample of its
// peer accesses to the MSS.
func (h *Host) sendLocationUpdate(now time.Duration) {
	h.lastServerContact = now
	msg := network.Message{
		Kind:     network.KindLocationUpdate,
		From:     h.id,
		Size:     network.ControlSize,
		Location: h.Position(now),
	}
	if sample := h.samplePeerAccesses(); sample != nil {
		msg.Extra = sample
	}
	h.link.SendUp(msg)
}

// samplePeerAccesses returns a ρ_P sample of the peer-served items since
// the last server contact, or nil, and clears the log. The sample is a
// copy: the message carrying it is still in flight when the log refills.
func (h *Host) samplePeerAccesses() *server.AccessSample {
	log := h.peerAccessLog
	n := 0
	for _, it := range log {
		if h.rngSample.Bool(h.cfg.PeerAccessSample) {
			log[n] = it
			n++
		}
	}
	h.peerAccessLog = log[:0]
	if n == 0 {
		return nil
	}
	return &server.AccessSample{Items: slices.Clone(log[:n])}
}

// Receive implements network.Peer: P2P traffic dispatch.
func (h *Host) Receive(msg *network.Message) {
	switch msg.Kind {
	case network.KindBeacon:
		if h.ndp != nil {
			h.ndp.HandleBeacon(msg.From)
		}
		if info, ok := msg.Extra.(*beaconInfo); ok {
			h.recordNeighborBeacon(msg.From, info)
			h.recordNeighborHints(info.Hints)
			if info.SigDelta != nil && h.inTCG(msg.From) {
				h.applySigDelta(msg.From, info.SigDelta.insert, info.SigDelta.evict)
			}
		}
	case network.KindRequest:
		h.handlePeerRequest(msg)
	case network.KindReply:
		if h.atFinalHop(msg) {
			h.handleReply(msg)
		}
	case network.KindRetrieve:
		if h.atFinalHop(msg) {
			h.handleRetrieve(msg)
		}
	case network.KindData:
		if h.atFinalHop(msg) {
			h.handleData(msg)
		}
	case network.KindSigRequest:
		h.handleSigRequest(msg)
	case network.KindSigReply:
		h.handleSigReply(msg)
	case network.KindTouch:
		if h.atFinalHop(msg) {
			h.handleTouch(msg)
		}
	case network.KindSpill:
		h.handleSpill(msg)
	default:
	}
}

// ReceiveFromServer handles downlink traffic; it reports whether the host
// accepted the message (false while disconnected, in which case the reply
// is lost).
func (h *Host) ReceiveFromServer(msg *network.Message) bool {
	if !h.medium.Connected(h.id) {
		return false
	}
	switch msg.Kind {
	case network.KindServerReply:
		h.handleServerReply(msg)
	case network.KindValidateOK:
		h.handleValidateOK(msg)
	case network.KindLocationUpdate:
		h.applyMembershipChanges(membershipChanges(msg))
	default:
	}
	return true
}

// membershipChanges returns the TCG membership changes an MSS message
// carries, or nil.
func membershipChanges(msg *network.Message) []server.MembershipChange {
	if changes, ok := msg.Extra.(*server.Changes); ok {
		return changes.List
	}
	return nil
}
