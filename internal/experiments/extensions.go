package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/server"
)

// Extensions returns sweeps beyond the paper's figures that probe the
// system's remaining dimensions: MSS service-area coverage (the
// access-failure outcome of Section III that the paper defines but never
// sweeps), the P2P search hop bound, the pull/push/hybrid delivery models
// of the introduction, the cache signature size σ, the grouping-criteria
// baselines behind the paper's dual-vicinity claim, the cache-spillover
// companion scheme, and the Manhattan mobility alternative.
func Extensions() []Experiment {
	return []Experiment{
		{
			ID:     "servicearea",
			Figure: "Ext 1",
			Title:  "effect of MSS service area coverage (access failures)",
			Param:  "CoverageRadius",
			Values: []float64{300, 450, 600, 750, 0}, // 0 = full coverage
			Apply: func(cfg *core.Config, v float64) {
				cfg.ServiceAreaRadius = v
			},
			FormatValue: func(v float64) string {
				if v == 0 {
					return "full"
				}
				return fmt.Sprintf("%.0fm", v)
			},
		},
		{
			ID:     "hopdist",
			Figure: "Ext 2",
			Title:  "effect of the P2P search hop bound",
			Param:  "HopDist",
			Values: []float64{1, 2, 3},
			Schemes: []core.Scheme{
				core.SchemeCOCA, core.SchemeGroCoca,
			},
			Apply: func(cfg *core.Config, v float64) {
				cfg.HopDist = int(v)
			},
			FormatValue: formatInt,
		},
		{
			ID:     "delivery",
			Figure: "Ext 3",
			Title:  "pull vs push vs hybrid data dissemination",
			Param:  "Delivery",
			Values: []float64{0, 1, 2},
			Schemes: []core.Scheme{
				core.SchemeSC, core.SchemeGroCoca,
			},
			Apply: func(cfg *core.Config, v float64) {
				cfg.Delivery = core.DeliveryModel(int(v))
				// A 10,000-item broadcast cycle takes half a minute; use a
				// smaller catalog so the pure-push sweep stays tractable
				// while preserving the latency ordering.
				cfg.NData = 2000
			},
			FormatValue: func(v float64) string {
				return core.DeliveryModel(int(v)).String()
			},
		},
		{
			ID:     "sigbits",
			Figure: "Ext 4",
			Title:  "effect of the cache signature size σ",
			Param:  "SigBits",
			Values: []float64{1000, 2500, 5000, 10000, 20000},
			Schemes: []core.Scheme{
				core.SchemeGroCoca,
			},
			Apply: func(cfg *core.Config, v float64) {
				cfg.SigBits = int(v)
			},
			FormatValue: formatInt,
		},
		{
			ID:     "grouping",
			Figure: "Ext 5",
			Title:  "TCG criteria: both vicinities vs single-criterion baselines",
			Param:  "Criteria",
			Values: []float64{0, 1, 2},
			Schemes: []core.Scheme{
				core.SchemeGroCoca,
			},
			Apply: func(cfg *core.Config, v float64) {
				cfg.GroupCriteria = server.GroupCriteria(int(v))
				// The baselines only separate when geographic and
				// operational vicinity disagree: overlap the access
				// windows (similar interests across distant groups) and
				// densify the space (dissimilar groups side by side).
				cfg.NData = 1000
				cfg.AccessRange = 400
				cfg.SpaceWidth, cfg.SpaceHeight = 600, 600
			},
			FormatValue: func(v float64) string {
				return server.GroupCriteria(int(v)).String()
			},
		},
		{
			ID:     "spillover",
			Figure: "Ext 6",
			Title:  "cache spillover to low-activity clients (companion scheme of ref. [5])",
			Param:  "Spillover",
			Values: []float64{0, 1},
			Schemes: []core.Scheme{
				core.SchemeCOCA, core.SchemeGroCoca,
			},
			Apply: func(cfg *core.Config, v float64) {
				// Heterogeneous population: 40% of hosts request 10× less
				// often, leaving cache space for their busy group mates.
				cfg.LowActivityFraction = 0.4
				cfg.EnableSpillover = v != 0
			},
			FormatValue: func(v float64) string {
				if v == 0 {
					return "off"
				}
				return "on"
			},
		},
		{
			ID:     "mobility",
			Figure: "Ext 7",
			Title:  "random waypoint vs Manhattan grid mobility",
			Param:  "Mobility",
			Values: []float64{0, 1},
			Apply: func(cfg *core.Config, v float64) {
				cfg.Mobility = core.MobilityModel(int(v))
			},
			FormatValue: func(v float64) string {
				return core.MobilityModel(int(v)).String()
			},
		},
		{
			ID:     "faultloss",
			Figure: "Ext 8",
			Title:  "fault tolerance: uniform message loss on every channel",
			Param:  "LossRate",
			Values: []float64{0, 0.01, 0.05, 0.10},
			Apply: func(cfg *core.Config, v float64) {
				// The same i.i.d. loss rate hits the P2P medium and both
				// server directions; the hardening defaults (retrieve
				// retry, server rescue) stay on, so the sweep shows
				// graceful degradation rather than stalls.
				cfg.P2PLossProb = v
				cfg.UplinkLossProb = v
				cfg.DownlinkLossProb = v
			},
			FormatValue: func(v float64) string {
				return fmt.Sprintf("%.0f%%", 100*v)
			},
		},
		{
			ID:     "outagechurn",
			Figure: "Ext 9",
			Title:  "fault tolerance: server burst outages with host crash churn",
			Param:  "Outage_s",
			Values: []float64{0, 2, 5, 10},
			Apply: func(cfg *core.Config, v float64) {
				// Hosts crash about once every five simulated minutes and
				// stay down 5-30 s; the server additionally blacks out for
				// the swept duration once a minute.
				cfg.CrashMTBF = 5 * time.Minute
				if v > 0 {
					cfg.ServerOutagePeriod = time.Minute
					cfg.ServerOutageDuration = time.Duration(v * float64(time.Second))
				}
			},
			FormatValue: func(v float64) string {
				return fmt.Sprintf("%.0fs", v)
			},
		},
	}
}

// CSV renders measured points as comma-separated rows with a header,
// suitable for external plotting. The trailing columns carry the
// replication count and per-metric sample standard deviations; single-run
// sweeps report reps=1 and zero deviations, so the schema is uniform.
func (e Experiment) CSV(points []Point) string {
	var b strings.Builder
	fmt.Fprintf(&b, "experiment,figure,%s,scheme,latency_ms,server_req_ratio,lch_ratio,gch_ratio,failure_ratio,power_per_gch_uws,total_energy_j,requests,reps,latency_ms_sd,server_req_sd,lch_sd,gch_sd,failure_sd,power_per_gch_sd,total_energy_j_sd\n", strings.ToLower(e.Param))
	for _, p := range points {
		r := p.Results
		sp := p.Spread
		if sp == nil {
			sp = &Spread{}
		}
		reps := p.Reps
		if reps < 1 {
			reps = 1
		}
		fmt.Fprintf(&b, "%s,%s,%s,%s,%.4f,%.4f,%.4f,%.4f,%.4f,%.1f,%.3f,%d,%d,%.4f,%.4f,%.4f,%.4f,%.4f,%.1f,%.3f\n",
			e.ID, e.Figure, e.format(p.Value), r.Scheme,
			float64(r.MeanLatency)/float64(time.Millisecond),
			r.ServerRequestRatio, r.LocalHitRatio, r.GlobalHitRatio, r.FailureRatio,
			r.EnergyPerGCH, r.TotalEnergy/1e6, r.Requests,
			reps, sp.LatencyMS, sp.ServerReqRatio, sp.LocalHitRatio, sp.GlobalHitRatio,
			sp.FailureRatio, sp.EnergyPerGCH, sp.TotalEnergyJ,
		)
	}
	return b.String()
}
