package network

import (
	"fmt"
	"time"

	"repro/internal/sim"
)

// ServerLink models the infrastructure channel between the mobile hosts and
// the MSS: a shared FCFS uplink carrying client requests and a shared FCFS
// downlink carrying replies. The downlink is the scalability bottleneck of
// the paper's pull-based environment — every cache miss queues a DataSize
// transmission on it.
type ServerLink struct {
	k        *sim.Kernel
	uplink   *sim.Channel[Message]
	downlink *sim.Channel[Message]
	upKbps   float64
	downKbps float64
	meter    *Meter
	// handler receives uplink messages at the MSS.
	handler func(msg *Message)
	// deliver hands downlink messages to a client; it reports whether the
	// client accepted it (false when disconnected).
	deliver func(to NodeID, msg *Message) bool
	faults  *FaultPlan
	// stats
	upCount, downCount uint64
	drops              LinkDrops
}

// LinkDrops breaks the server link's lost messages down by channel and
// cause. DownlinkDisconnected mirrors the disconnected-client drops also
// reported by Stats; the remaining counters are injected faults.
type LinkDrops struct {
	// UplinkFault and UplinkOutage count client requests destroyed on
	// the uplink by random loss and scheduled outages respectively.
	UplinkFault  uint64
	UplinkOutage uint64
	// DownlinkFault and DownlinkOutage count MSS replies destroyed on
	// the downlink.
	DownlinkFault  uint64
	DownlinkOutage uint64
	// DownlinkDisconnected counts replies addressed to clients that were
	// disconnected (or unroutable) at delivery time.
	DownlinkDisconnected uint64
}

// Total sums the per-cause counters.
func (d LinkDrops) Total() uint64 {
	return d.UplinkFault + d.UplinkOutage + d.DownlinkFault + d.DownlinkOutage + d.DownlinkDisconnected
}

// ServerLinkConfig parameterises the infrastructure channel.
type ServerLinkConfig struct {
	UplinkKbps   float64
	DownlinkKbps float64
}

// NewServerLink creates the channel pair.
func NewServerLink(k *sim.Kernel, cfg ServerLinkConfig, meter *Meter) (*ServerLink, error) {
	if cfg.UplinkKbps <= 0 || cfg.DownlinkKbps <= 0 {
		return nil, fmt.Errorf("network: server bandwidths (%v, %v) must be positive", cfg.UplinkKbps, cfg.DownlinkKbps)
	}
	if meter == nil {
		meter = NewMeter()
	}
	l := &ServerLink{
		k:        k,
		upKbps:   cfg.UplinkKbps,
		downKbps: cfg.DownlinkKbps,
		meter:    meter,
	}
	l.uplink = sim.NewChannel(k, l.upDone)
	l.downlink = sim.NewChannel(k, l.downDone)
	return l, nil
}

// SetHandler installs the MSS-side uplink handler. It must be set before
// any SendUp call. The handler gets a pointer into the uplink's ring under
// the same contract as Peer.Receive: valid until the handler returns, and
// never written through.
func (l *ServerLink) SetHandler(h func(msg *Message)) { l.handler = h }

// SetDeliver installs the downlink delivery function, which routes a
// message to the addressed client and reports acceptance. It gets a
// pointer into the downlink's ring, under the same contract as the
// handler.
func (l *ServerLink) SetDeliver(d func(to NodeID, msg *Message) bool) { l.deliver = d }

// SendUp queues msg on the shared uplink; the MSS handler runs when the
// transmission completes. The sending client pays infrastructure-NIC send
// energy.
func (l *ServerLink) SendUp(msg Message) {
	l.upCount++
	l.meter.Charge(msg.From, EnergyServerSend, Power.ServerSend.Energy(msg.Size))
	l.uplink.Send(msg, TxTime(msg.Size, l.upKbps))
}

// upDone hands a request that crossed the uplink to the MSS handler,
// unless an injected fault destroyed it.
func (l *ServerLink) upDone(msg *Message) {
	switch {
	case l.faults != nil && l.faults.InOutage(l.k.Now()):
		l.drops.UplinkOutage++
	case l.faults != nil && l.faults.DropUplink(msg.Size, l.k.Now()):
		l.drops.UplinkFault++
	case l.handler != nil:
		l.handle(msg)
	}
	if msgCheck {
		poison(msg)
	}
}

// handle hands an uplink message to the MSS handler. Under the msgcheck
// build tag it panics when the handler changed the message.
func (l *ServerLink) handle(msg *Message) {
	if !msgCheck {
		l.handler(msg)
		return
	}
	was := *msg
	l.handler(msg)
	checkUnchanged(msg, &was, -1)
}

// SendDown queues msg on the shared downlink for the addressed client; the
// client pays infrastructure-NIC receive energy when it accepts the
// message. Messages to disconnected clients are dropped silently (the
// client re-requests after reconnecting).
func (l *ServerLink) SendDown(msg Message) {
	l.downCount++
	l.downlink.Send(msg, TxTime(msg.Size, l.downKbps))
}

// downDone delivers a reply that crossed the downlink to its client,
// unless an injected fault destroyed it or the client cannot take it.
func (l *ServerLink) downDone(msg *Message) {
	switch {
	case l.faults != nil && l.faults.InOutage(l.k.Now()):
		l.drops.DownlinkOutage++
	case l.faults != nil && l.faults.DropDownlink(msg.Size, l.k.Now()):
		l.drops.DownlinkFault++
	case l.deliver == nil || !l.receive(msg):
		l.drops.DownlinkDisconnected++
	default:
		l.meter.Charge(msg.To, EnergyServerRecv, Power.ServerRecv.Energy(msg.Size))
	}
	if msgCheck {
		poison(msg)
	}
}

// receive hands a downlink message to the deliver function. Under the
// msgcheck build tag it panics when the client changed the message.
func (l *ServerLink) receive(msg *Message) bool {
	if !msgCheck {
		return l.deliver(msg.To, msg)
	}
	was := *msg
	ok := l.deliver(msg.To, msg)
	checkUnchanged(msg, &was, was.To)
	return ok
}

// SetFaultPlan installs the injected-fault source for both directions. A
// nil plan (the default) keeps the ideal channel.
func (l *ServerLink) SetFaultPlan(p *FaultPlan) { l.faults = p }

// DownlinkUtilization reports the fraction of time the downlink has been
// busy, the saturation measure behind the scalability experiment.
func (l *ServerLink) DownlinkUtilization() float64 { return l.downlink.Utilization() }

// DownlinkQueue reports the number of replies waiting for the downlink.
func (l *ServerLink) DownlinkQueue() int { return l.downlink.QueueLen() }

// UplinkQueue reports the number of requests waiting for the uplink —
// together with DownlinkQueue and TxTimes it feeds the clients'
// queue-aware server-rescue timeout estimate.
func (l *ServerLink) UplinkQueue() int { return l.uplink.QueueLen() }

// Stats reports message counts since creation; downDropped sums every
// downlink drop cause (see Drops for the breakdown).
func (l *ServerLink) Stats() (up, down, downDropped uint64) {
	return l.upCount, l.downCount,
		l.drops.DownlinkDisconnected + l.drops.DownlinkFault + l.drops.DownlinkOutage
}

// Drops reports the per-cause drop counters of both directions.
func (l *ServerLink) Drops() LinkDrops { return l.drops }

// TxTimes exposes the transmission times for a message of the given size on
// each direction, for protocol timeout computation.
func (l *ServerLink) TxTimes(size int) (up, down time.Duration) {
	return TxTime(size, l.upKbps), TxTime(size, l.downKbps)
}
