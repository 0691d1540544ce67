package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/client"
	"repro/internal/mobility"
	"repro/internal/network"
	"repro/internal/push"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/strategy"
	"repro/internal/workload"
)

// Table II's remaining single values, and the activity gap of the
// low-activity hosts (see Config.LowActivityFraction). No figure varies
// them.
const (
	// updateEWMAWeight is α, the weight of the newest update interval in
	// the MSS's per-item update-rate estimate.
	updateEWMAWeight = 0.5
	// lowActivityFactor multiplies a low-activity host's mean
	// interarrival time and divides its request quotas.
	lowActivityFactor = 10
)

// Simulation is one fully assembled system ready to run.
type Simulation struct {
	cfg       Config
	kernel    *sim.Kernel
	meter     *network.Meter
	medium    *network.Medium
	link      *network.ServerLink
	mss       *server.MSS
	collector *client.Collector
	hosts     []*client.Host
	faults    *network.FaultPlan
	disk      *push.Disk
}

// New assembles a simulation from the configuration.
func New(cfg Config) (*Simulation, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	k := sim.NewKernel()
	root := sim.Seed(cfg.Seed)
	meter := network.NewMeter()

	medium, err := network.NewMedium(k, cfg.Medium(), meter)
	if err != nil {
		return nil, fmt.Errorf("core: medium: %w", err)
	}
	link, err := network.NewServerLink(k, network.ServerLinkConfig{
		UplinkKbps:   cfg.ServerUplinkKbps,
		DownlinkKbps: cfg.ServerDownlinkKbps,
	}, meter)
	if err != nil {
		return nil, fmt.Errorf("core: server link: %w", err)
	}

	catalog, err := server.NewCatalog(k, cfg.NData, cfg.DataSize, updateEWMAWeight)
	if err != nil {
		return nil, fmt.Errorf("core: catalog: %w", err)
	}
	updater, err := server.NewUpdater(k, catalog, cfg.DataUpdateRate, cfg.ReviseEvery, root.Stream("updates"))
	if err != nil {
		return nil, fmt.Errorf("core: updater: %w", err)
	}
	var tcg *server.TCGManager
	if strategy.TraitsOf(cfg.Scheme).Signatures {
		tcg, err = server.NewTCGManager(cfg.NumClients, cfg.NData, cfg.TCG())
		if err != nil {
			return nil, fmt.Errorf("core: tcg manager: %w", err)
		}
	}
	mss, err := server.NewMSS(k, link, catalog, tcg)
	if err != nil {
		return nil, fmt.Errorf("core: mss: %w", err)
	}

	s := &Simulation{
		cfg:    cfg,
		kernel: k,
		meter:  meter,
		medium: medium,
		link:   link,
		mss:    mss,
	}
	s.collector = client.NewCollector(cfg.NumClients, cfg.GroupSize, meter, k.Stop)

	if err := s.buildHosts(root); err != nil {
		return nil, err
	}
	link.SetDeliver(func(to network.NodeID, msg *network.Message) bool {
		if to < 0 || int(to) >= len(s.hosts) {
			return false
		}
		return s.hosts[to].ReceiveFromServer(msg)
	})
	if fpc := cfg.FaultPlan(); !fpc.Zero() {
		plan, err := network.NewFaultPlan(fpc, root.Stream("fault"))
		if err != nil {
			return nil, fmt.Errorf("core: fault plan: %w", err)
		}
		s.InstallFaultPlan(plan)
	}
	if cfg.Delivery != DeliveryPull {
		disk, err := push.NewDisk(k, cfg.Broadcast(), catalog, meter)
		if err != nil {
			return nil, fmt.Errorf("core: broadcast disk: %w", err)
		}
		s.disk = disk
		disk.SetFaultPlan(s.faults)
		for _, h := range s.hosts {
			h.SetBroadcastDisk(disk)
		}
		disk.Start()
	}
	updater.Start()
	return s, nil
}

// buildHosts creates the motion groups, per-group access ranges, and hosts.
func (s *Simulation) buildHosts(root sim.Seed) error {
	cfg := s.cfg
	mobCfg := cfg.Motion()
	numGroups := (cfg.NumClients + cfg.GroupSize - 1) / cfg.GroupSize
	// Only the workload stream draws itself; the others only derive.
	mobSeed := root.Sub("mobility")
	wlRNG := root.Stream("workload")
	hostSeed := root.Sub("hosts")

	s.hosts = make([]*client.Host, 0, cfg.NumClients)
	shiftSeed := root.Sub("hotspot-shift")
	id := network.NodeID(0)
	for g := 0; g < numGroups; g++ {
		groupRNG := mobSeed.Stream(fmt.Sprintf("group-%d", g))
		var group *mobility.Group
		var err error
		if cfg.Mobility == MobilityManhattan {
			group, err = mobility.NewManhattanGroup(mobCfg, cfg.GridSpacing, cfg.GroupRadius, groupRNG)
		} else {
			group, err = mobility.NewGroup(mobCfg, cfg.GroupRadius, groupRNG)
		}
		if err != nil {
			return fmt.Errorf("core: group %d: %w", g, err)
		}
		// Each motion group draws from its own randomly placed access
		// window with a group-specific hot set.
		first := 0
		if cfg.NData > cfg.AccessRange {
			first = wlRNG.Intn(cfg.NData - cfg.AccessRange + 1)
		}
		access, err := workload.NewAccessRange(
			workload.ItemID(first), cfg.AccessRange, cfg.NData, cfg.Zipf,
			wlRNG.Stream(fmt.Sprintf("range-%d", g)),
		)
		if err != nil {
			return fmt.Errorf("core: access range %d: %w", g, err)
		}
		if cfg.HotspotShiftEvery > 0 {
			s.scheduleHotspotShifts(access, shiftSeed.Stream(fmt.Sprintf("shift-%d", g)))
		}
		for m := 0; m < cfg.GroupSize && int(id) < cfg.NumClients; m++ {
			interarrival := cfg.MeanInterarrival
			warmup, measured := cfg.WarmupRequests, cfg.MeasuredRequests
			if cfg.LowActivityFraction > 0 &&
				hostSeed.Stream(fmt.Sprintf("activity-%d", id)).Bool(cfg.LowActivityFraction) {
				interarrival = time.Duration(float64(interarrival) * lowActivityFactor)
				// Low-activity hosts carry proportionally smaller request
				// quotas so every host finishes around the same simulated
				// time and the measured windows stay aligned.
				warmup = scaleQuota(warmup)
				measured = scaleQuota(measured)
			}
			gen, err := workload.NewGenerator(access, interarrival, wlRNG.Stream(fmt.Sprintf("gen-%d", id)))
			if err != nil {
				return fmt.Errorf("core: generator %d: %w", id, err)
			}
			host, err := client.NewHost(
				s.kernel, id, &s.cfg, warmup, measured, group.NewMember(),
				s.medium, s.link, gen, s.collector,
				hostSeed.Sub(fmt.Sprintf("host-%d", id)),
			)
			if err != nil {
				return fmt.Errorf("core: host %d: %w", id, err)
			}
			if err := s.medium.Register(host); err != nil {
				return fmt.Errorf("core: register host %d: %w", id, err)
			}
			s.hosts = append(s.hosts, host)
			id++
		}
	}
	return nil
}

// scaleQuota divides a request quota by the activity factor, keeping at
// least a handful of requests so the host still participates.
func scaleQuota(quota int) int {
	scaled := int(float64(quota) / lowActivityFactor)
	if scaled < 5 {
		scaled = 5
	}
	return scaled
}

// scheduleHotspotShifts drifts one group's interests periodically.
func (s *Simulation) scheduleHotspotShifts(access *workload.AccessRange, rng *sim.RNG) {
	var tick func()
	tick = func() {
		access.Shift(s.cfg.HotspotShiftFraction, rng)
		s.kernel.Schedule(s.cfg.HotspotShiftEvery, tick)
	}
	s.kernel.Schedule(s.cfg.HotspotShiftEvery, tick)
}

// Run executes the simulation until every host completes its request quota
// (or the safety horizon expires) and returns the measured results.
func (s *Simulation) Run() (Results, error) {
	for _, h := range s.hosts {
		h.Start()
	}
	horizon := s.horizon()
	err := s.kernel.Run(horizon)
	switch {
	case err == nil:
		// Horizon reached: some hosts did not finish (e.g. extreme
		// congestion). Results are still meaningful but flagged.
		return s.results(false), nil
	case errors.Is(err, sim.ErrStopped):
		return s.results(true), nil
	default:
		return Results{}, err
	}
}

// horizon bounds the run defensively: closed-loop clients each need about
// (requests × (interarrival + service)) of simulated time; a generous
// multiple covers disconnections and congestion.
func (s *Simulation) horizon() time.Duration {
	perRequest := s.cfg.MeanInterarrival + time.Second
	total := time.Duration(s.cfg.WarmupRequests+s.cfg.MeasuredRequests) * perRequest * 20
	if s.cfg.DiscProb > 0 {
		total += time.Duration(float64(s.cfg.WarmupRequests+s.cfg.MeasuredRequests) * s.cfg.DiscProb * float64(s.cfg.DiscMax))
	}
	if total < time.Hour {
		total = time.Hour
	}
	return total
}

// InstallFaultPlan wires a fault plan into the medium, the server link,
// and every host. It must be called before Run. New installs the plan
// derived from the config automatically; the explicit entry point exists
// so tests and tools can install externally built plans (e.g. a zero plan
// for the determinism guard).
func (s *Simulation) InstallFaultPlan(p *network.FaultPlan) {
	s.faults = p
	s.medium.SetFaultPlan(p)
	s.link.SetFaultPlan(p)
	if s.disk != nil {
		s.disk.SetFaultPlan(p)
	}
	for _, h := range s.hosts {
		h.SetFaultPlan(p)
	}
}

// OutstandingRequests counts hosts that still hold an in-flight request.
// After a completed run it must be zero: every begun request reaches a
// terminal outcome even under injected faults.
func (s *Simulation) OutstandingRequests() int {
	n := 0
	for _, h := range s.hosts {
		if h.Outstanding() {
			n++
		}
	}
	return n
}

// Hosts exposes the mobile hosts, for examples that want to inspect cache
// or TCG state after a run.
func (s *Simulation) Hosts() []*client.Host { return s.hosts }

// MSS exposes the mobile support station.
func (s *Simulation) MSS() *server.MSS { return s.mss }

// Collector exposes the metrics collector.
func (s *Simulation) Collector() *client.Collector { return s.collector }

// Kernel exposes the simulation kernel, so auditors can schedule periodic
// structural sweeps inside the run.
func (s *Simulation) Kernel() *sim.Kernel { return s.kernel }

// FaultPlan returns the installed fault plan, or nil for ideal channels.
func (s *Simulation) FaultPlan() *network.FaultPlan { return s.faults }

// Config returns the assembled configuration.
func (s *Simulation) Config() Config { return s.cfg }
