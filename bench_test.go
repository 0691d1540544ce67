// Package repro's benchmarks regenerate the paper's evaluation figures as
// testing.B benchmarks: one benchmark per figure (2–8), each sub-benchmark
// running one (scheme, parameter) cell at a reduced, laptop-friendly scale
// and reporting the figure's metrics — access latency (ms), server request
// ratio, local/global cache hit ratios, and power per global cache hit —
// via b.ReportMetric. The full-scale tables are produced by
// cmd/grococa-bench; see EXPERIMENTS.md.
//
// Run with:
//
//	go test -bench=. -benchmem -benchtime=1x
package repro

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/server"
	"repro/internal/strategy"
)

// benchConfig is the reduced scale used by the benchmarks: 30 hosts over a
// smaller catalog, enough requests for caches to fill and TCGs to form.
func benchConfig(scheme core.Scheme) core.Config {
	cfg := core.DefaultConfig()
	cfg.Scheme = scheme
	cfg.NumClients = 30
	cfg.NData = 2000
	cfg.AccessRange = 200
	cfg.CacheSize = 50
	cfg.WarmupRequests = 80
	cfg.MeasuredRequests = 120
	return cfg
}

// runCell executes one simulation per iteration and reports the figure
// metrics from the last run.
func runCell(b *testing.B, cfg core.Config) {
	b.Helper()
	var r core.Results
	for i := 0; i < b.N; i++ {
		var err error
		r, err = core.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(r.MeanLatency)/float64(time.Millisecond), "latency-ms")
	b.ReportMetric(100*r.ServerRequestRatio, "server-req-%")
	b.ReportMetric(100*r.LocalHitRatio, "LCH-%")
	b.ReportMetric(100*r.GlobalHitRatio, "GCH-%")
	b.ReportMetric(r.EnergyPerGCH, "µWs/GCH")
	b.ReportMetric(float64(r.Events)/float64(r.SimTime.Seconds()+1), "events/simsec")
}

// sweep runs a reduced version of one figure's parameter sweep.
func sweep(b *testing.B, values []float64, apply func(*core.Config, float64), format func(float64) string) {
	b.Helper()
	for _, v := range values {
		for _, scheme := range strategy.Paper() {
			name := fmt.Sprintf("%v/%s", scheme, format(v))
			b.Run(name, func(b *testing.B) {
				cfg := benchConfig(scheme)
				apply(&cfg, v)
				runCell(b, cfg)
			})
		}
	}
}

func intLabel(v float64) string  { return fmt.Sprintf("%.0f", v) }
func probLabel(v float64) string { return fmt.Sprintf("%.2f", v) }

// BenchmarkFig2CacheSize regenerates Figure 2: effect of cache size.
func BenchmarkFig2CacheSize(b *testing.B) {
	sweep(b, []float64{25, 50, 100}, func(cfg *core.Config, v float64) {
		cfg.CacheSize = int(v)
		if min := int(2.5 * v); cfg.WarmupRequests < min {
			cfg.WarmupRequests = min
		}
	}, intLabel)
}

// BenchmarkFig3Skewness regenerates Figure 3: effect of Zipf skewness θ.
func BenchmarkFig3Skewness(b *testing.B) {
	sweep(b, []float64{0, 0.5, 1}, func(cfg *core.Config, v float64) {
		cfg.Zipf = v
	}, probLabel)
}

// BenchmarkFig4AccessRange regenerates Figure 4: effect of access range.
func BenchmarkFig4AccessRange(b *testing.B) {
	sweep(b, []float64{100, 200, 400}, func(cfg *core.Config, v float64) {
		cfg.AccessRange = int(v)
	}, intLabel)
}

// BenchmarkFig5GroupSize regenerates Figure 5: effect of motion group size.
func BenchmarkFig5GroupSize(b *testing.B) {
	sweep(b, []float64{1, 5, 15}, func(cfg *core.Config, v float64) {
		cfg.GroupSize = int(v)
	}, intLabel)
}

// BenchmarkFig6UpdateRate regenerates Figure 6: effect of data update rate.
func BenchmarkFig6UpdateRate(b *testing.B) {
	sweep(b, []float64{0, 5, 20}, func(cfg *core.Config, v float64) {
		cfg.DataUpdateRate = v
	}, intLabel)
}

// BenchmarkFig7Scalability regenerates Figure 7: effect of host count.
func BenchmarkFig7Scalability(b *testing.B) {
	sweep(b, []float64{20, 40, 80}, func(cfg *core.Config, v float64) {
		cfg.NumClients = int(v)
	}, intLabel)
}

// BenchmarkFig8Disconnection regenerates Figure 8: effect of client
// disconnection probability.
func BenchmarkFig8Disconnection(b *testing.B) {
	sweep(b, []float64{0, 0.15, 0.3}, func(cfg *core.Config, v float64) {
		cfg.DiscProb = v
		cfg.DiscMin = 10 * time.Second
		cfg.DiscMax = 50 * time.Second
	}, probLabel)
}

// runAblation benches one GroCoca design-choice switch.
func runAblation(b *testing.B, apply func(*core.Config)) {
	cfg := benchConfig(core.SchemeGroCoca)
	apply(&cfg)
	runCell(b, cfg)
}

// BenchmarkAblationNoFilter disables the signature filtering mechanism.
func BenchmarkAblationNoFilter(b *testing.B) {
	runAblation(b, func(cfg *core.Config) { cfg.DisableFilter = true })
}

// BenchmarkAblationNoAdmission disables cooperative admission control.
func BenchmarkAblationNoAdmission(b *testing.B) {
	runAblation(b, func(cfg *core.Config) { cfg.DisableAdmission = true })
}

// BenchmarkAblationNoCoopReplace disables cooperative cache replacement.
func BenchmarkAblationNoCoopReplace(b *testing.B) {
	runAblation(b, func(cfg *core.Config) { cfg.DisableCoopReplace = true })
}

// BenchmarkAblationNoCompression disables VLFL signature compression.
func BenchmarkAblationNoCompression(b *testing.B) {
	runAblation(b, func(cfg *core.Config) { cfg.DisableCompression = true })
}

// BenchmarkAblationFixedTimeout replaces the adaptive search timeout with a
// fixed 20 ms timeout.
func BenchmarkAblationFixedTimeout(b *testing.B) {
	runAblation(b, func(cfg *core.Config) { cfg.FixedTimeout = 20 * time.Millisecond })
}

// BenchmarkExperimentTableRendering exercises the table renderer (cheap,
// micro-level benchmark of the reporting path).
func BenchmarkExperimentTableRendering(b *testing.B) {
	e, ok := experiments.Lookup("cachesize")
	if !ok {
		b.Fatal("cachesize experiment missing")
	}
	points := []experiments.Point{
		{Value: 50, Scheme: core.SchemeSC, Runs: []core.Results{{Scheme: "SC"}}},
		{Value: 50, Scheme: core.SchemeCOCA, Runs: []core.Results{{Scheme: "COCA"}}},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := e.Table(points); len(s) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkExtDeliveryModels benches the pull/push/hybrid dissemination
// comparison (Ext 3) at reduced scale.
func BenchmarkExtDeliveryModels(b *testing.B) {
	for _, d := range []core.DeliveryModel{core.DeliveryPull, core.DeliveryPush, core.DeliveryHybrid} {
		b.Run(d.String(), func(b *testing.B) {
			cfg := benchConfig(core.SchemeSC)
			cfg.Delivery = d
			cfg.MeasuredRequests = 60 // push waits ~half a cycle per miss
			runCell(b, cfg)
		})
	}
}

// BenchmarkExtGroupingCriteria benches the TCG-criteria baselines (Ext 5).
func BenchmarkExtGroupingCriteria(b *testing.B) {
	for _, c := range []server.GroupCriteria{
		server.CriteriaBoth, server.CriteriaDistanceOnly, server.CriteriaSimilarityOnly,
	} {
		b.Run(c.String(), func(b *testing.B) {
			cfg := benchConfig(core.SchemeGroCoca)
			cfg.GroupCriteria = c
			runCell(b, cfg)
		})
	}
}

// BenchmarkExtServiceArea benches the access-failure sweep (Ext 1).
func BenchmarkExtServiceArea(b *testing.B) {
	for _, radius := range []float64{300, 600, 0} {
		name := "full"
		if radius > 0 {
			name = fmt.Sprintf("%.0fm", radius)
		}
		b.Run(name, func(b *testing.B) {
			cfg := benchConfig(core.SchemeCOCA)
			cfg.ServiceAreaRadius = radius
			runCell(b, cfg)
		})
	}
}

// BenchmarkSpatialIndexAblation runs the same full GroCoca simulation with
// the medium's uniform-grid spatial index (the default) and with the
// pairwise O(N²) reachability scans it replaced. The two cells report
// identical figure metrics — the index is observationally invisible, which
// the index-equivalence tests enforce — so the only difference on display
// is wall-clock time per simulated run.
func BenchmarkSpatialIndexAblation(b *testing.B) {
	for _, mode := range []struct {
		name  string
		brute bool
	}{{"grid", false}, {"brute", true}} {
		b.Run(mode.name, func(b *testing.B) {
			cfg := benchConfig(core.SchemeGroCoca)
			cfg.NumClients = 60
			cfg.BruteForceReachability = mode.brute
			runCell(b, cfg)
		})
	}
}
