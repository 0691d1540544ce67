// Package push implements the push-based and hybrid data dissemination
// models the paper's introduction contrasts with its pull-based
// environment: a broadcast disk at the MSS cyclically transmits a set of
// items on a dedicated broadcast channel; clients tune in on a miss and
// wait for their item's slot instead of (push) or in addition to (hybrid)
// pulling over the shared point-to-point channels.
//
// The model captures the two costs the paper attributes to broadcast
// dissemination: access latency of half a broadcast cycle on average, and
// the power spent listening to the channel while waiting.
package push

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/network"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/workload"
)

// DeliverFunc receives a broadcast item: the token the waiter tuned in
// with, the TTL assigned at broadcast time and the time the waiter spent
// listening.
type DeliverFunc func(token uint64, ttl time.Duration, waited time.Duration)

// DropFunc tells a waiter, by the token it tuned in with, that its item
// left the broadcast schedule; the client falls back to pulling.
type DropFunc func(token uint64)

// waiter is one tuned-in client.
type waiter struct {
	id      network.NodeID
	token   uint64
	since   time.Duration
	deliver DeliverFunc
	dropped DropFunc
}

// Config parameterises the broadcast disk.
type Config struct {
	// BandwidthKbps is the broadcast channel bandwidth.
	BandwidthKbps float64
	// HotItems is the number of items on the disk. For a pure push system
	// this is the whole catalog; a hybrid system broadcasts a demand-driven
	// hot subset.
	HotItems int
	// ReshuffleEvery re-selects the hot set from accumulated demand; zero
	// disables reshuffling (static schedule over the first HotItems items).
	ReshuffleEvery time.Duration
}

// listenPowerPerSec is the client NIC power draw while tuned in waiting,
// in µW·s per second: about 50 mW of idle listening. A delivered item also
// costs the Table I infrastructure receive.
const listenPowerPerSec = 50000

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if !(c.BandwidthKbps > 0) {
		return fmt.Errorf("push: bandwidth %v must be positive", c.BandwidthKbps)
	}
	if c.HotItems <= 0 {
		return fmt.Errorf("push: hot set size %d must be positive", c.HotItems)
	}
	if c.ReshuffleEvery < 0 {
		return fmt.Errorf("push: negative reshuffle period %v", c.ReshuffleEvery)
	}
	return nil
}

// Disk is the MSS-side broadcast schedule: a flat disk cycling through the
// current hot set, one item per slot.
type Disk struct {
	k       *sim.Kernel
	cfg     Config
	catalog *server.Catalog
	meter   *network.Meter

	items    []workload.ItemID
	inSet    map[workload.ItemID]int // item -> slot index
	slot     int
	slotTime time.Duration
	waiters  map[workload.ItemID][]waiter
	running  bool
	faults   *network.FaultPlan

	broadcasts  uint64
	deliveries  uint64
	drops       uint64
	outageSlots uint64
}

// NewDisk creates a stopped disk over the catalog.
func NewDisk(k *sim.Kernel, cfg Config, catalog *server.Catalog, meter *network.Meter) (*Disk, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if catalog == nil {
		return nil, fmt.Errorf("push: catalog is required")
	}
	if cfg.HotItems > catalog.Len() {
		cfg.HotItems = catalog.Len()
	}
	if meter == nil {
		meter = network.NewMeter()
	}
	d := &Disk{
		k:        k,
		cfg:      cfg,
		catalog:  catalog,
		meter:    meter,
		inSet:    make(map[workload.ItemID]int, cfg.HotItems),
		slotTime: network.TxTime(network.HeaderSize+catalog.ItemSize(), cfg.BandwidthKbps),
		waiters:  make(map[workload.ItemID][]waiter),
	}
	// Initial schedule: first HotItems IDs (demand is empty at start; the
	// first reshuffle replaces this).
	initial := make([]workload.ItemID, cfg.HotItems)
	for i := range initial {
		initial[i] = workload.ItemID(i)
	}
	d.setItems(initial)
	return d, nil
}

// Start begins the slot loop and the reshuffle process.
func (d *Disk) Start() {
	if d.running {
		return
	}
	d.running = true
	d.k.Schedule(d.slotTime, d.tick)
	if d.cfg.ReshuffleEvery > 0 {
		d.k.Schedule(d.cfg.ReshuffleEvery, d.reshuffle)
	}
}

// SlotTime returns the on-air time of one item slot.
func (d *Disk) SlotTime() time.Duration { return d.slotTime }

// CycleTime returns the full broadcast cycle length.
func (d *Disk) CycleTime() time.Duration {
	return time.Duration(len(d.items)) * d.slotTime
}

// Contains reports whether the item is currently on the disk — what a
// hybrid client learns from the broadcast index.
func (d *Disk) Contains(item workload.ItemID) bool {
	_, ok := d.inSet[item]
	return ok
}

// Stats reports slot broadcasts, waiter deliveries, and schedule drops.
func (d *Disk) Stats() (broadcasts, deliveries, drops uint64) {
	return d.broadcasts, d.deliveries, d.drops
}

// SetFaultPlan couples the disk to the infrastructure fault schedule: a
// slot whose broadcast completes inside an MSS outage window delivers
// nothing (waiters stay tuned and catch a later cycle). A nil plan keeps
// ideal delivery.
func (d *Disk) SetFaultPlan(p *network.FaultPlan) { d.faults = p }

// OutageSlots reports how many broadcast slots were destroyed by
// scheduled MSS outages.
func (d *Disk) OutageSlots() uint64 { return d.outageSlots }

// Tune registers a client waiting for an item. The item must currently be
// on the disk (check Contains first); tuning for an off-disk item invokes
// dropped immediately. Both callbacks get token back, so one pair of
// callbacks bound once per client can tell its waits apart.
func (d *Disk) Tune(id network.NodeID, item workload.ItemID, token uint64, deliver DeliverFunc, dropped DropFunc) {
	if _, ok := d.inSet[item]; !ok {
		if dropped != nil {
			dropped(token)
		}
		return
	}
	d.waiters[item] = append(d.waiters[item], waiter{
		id:      id,
		token:   token,
		since:   d.k.Now(),
		deliver: deliver,
		dropped: dropped,
	})
}

// tick broadcasts the current slot's item and advances the disk.
func (d *Disk) tick() {
	if !d.running || len(d.items) == 0 {
		return
	}
	item := d.items[d.slot]
	d.slot = (d.slot + 1) % len(d.items)
	d.broadcasts++
	if d.faults != nil && d.faults.InOutage(d.k.Now()) {
		// The MSS is down: the slot goes out dead. Waiters keep listening
		// (and keep paying listen power) until an intact cycle repeats the
		// item.
		d.outageSlots++
		d.k.Schedule(d.slotTime, d.tick)
		return
	}
	if ws := d.waiters[item]; len(ws) > 0 {
		delete(d.waiters, item)
		now := d.k.Now()
		ttl := d.catalog.TTL(item)
		size := network.HeaderSize + d.catalog.ItemSize()
		for _, w := range ws {
			waited := now - w.since
			energy := network.Power.ServerRecv.Energy(size) +
				listenPowerPerSec*waited.Seconds()
			d.meter.Charge(w.id, network.EnergyServerRecv, energy)
			d.deliveries++
			if w.deliver != nil {
				w.deliver(w.token, ttl, waited)
			}
		}
	}
	d.k.Schedule(d.slotTime, d.tick)
}

// reshuffle re-selects the hot set from accumulated demand and notifies
// waiters whose items fell off the schedule.
func (d *Disk) reshuffle() {
	if !d.running {
		return
	}
	d.setItems(d.catalog.TopDemand(d.cfg.HotItems))
	d.k.Schedule(d.cfg.ReshuffleEvery, d.reshuffle)
}

func (d *Disk) setItems(items []workload.ItemID) {
	d.items = append(d.items[:0], items...)
	for k := range d.inSet {
		delete(d.inSet, k)
	}
	for i, id := range d.items {
		d.inSet[id] = i
	}
	if d.slot >= len(d.items) {
		d.slot = 0
	}
	// Drop waiters for items no longer scheduled: items ascending, each
	// item's waiters in tune order, so the fallbacks the callbacks start
	// replay exactly.
	var gone []workload.ItemID
	for item := range d.waiters {
		if _, ok := d.inSet[item]; !ok {
			gone = append(gone, item)
		}
	}
	slices.Sort(gone)
	for _, item := range gone {
		ws := d.waiters[item]
		delete(d.waiters, item)
		for _, w := range ws {
			d.drops++
			if w.dropped != nil {
				w.dropped(w.token)
			}
		}
	}
}
