package integration

import (
	"strings"
	"testing"

	"repro/internal/core"
)

// TestSpatialIndexEquivalence is the index-equivalence guard: for every
// scheme, with and without a fault plan, a full simulation run with the
// uniform-grid spatial index (the default) must produce byte-identical
// Results to the same run with Config.BruteForceReachability set — the
// pairwise O(N²) scan the index replaced.
//
// Equality is asserted on the canonical JSON digest of core.Results, the
// same canonicalization the seed-digest goldens pin, so "equivalent" means
// every metric, counter, and energy total matches to the bit: the index may
// only change how reachability is computed, never what any simulation
// observes. Combined with TestSeedDigest (whose goldens predate the index),
// this proves grid == brute == the pre-index baseline.
//
// The digest cases put 12 hosts in 1 km², where a host is rarely near
// another's range boundary. Each scheme's "+dense" case packs 30 hosts
// into 250 m × 250 m, so many reachability decisions fall near the
// boundary, where a wrong drift bound (DESIGN.md "Spatial index") shows.
func TestSpatialIndexEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario simulations in -short mode")
	}
	type equivCase struct {
		name  string
		cfg   func() core.Config
		repro string
	}
	var cases []equivCase
	for _, c := range digestCases() {
		cases = append(cases, equivCase{c.name, func() core.Config { return digestConfig(c) }, reproCommand(c)})
	}
	for _, s := range core.Schemes() {
		c := digestCase{name: strings.ToLower(s.String()), scheme: s}
		cases = append(cases, equivCase{c.name + "+dense", func() core.Config { return denseConfig(c) },
			reproCommand(c) + " -clients 30 -width 250 -height 250"})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			grid, err := core.Run(c.cfg())
			if err != nil {
				t.Fatal(err)
			}
			cfg := c.cfg()
			cfg.BruteForceReachability = true
			brute, err := core.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			gd, bd := resultsDigest(t, grid), resultsDigest(t, brute)
			if gd != bd {
				t.Errorf("spatial index changed simulation results:\n  grid  %s\n  brute %s\n"+
					"the index must be observationally invisible; repro: %s (add BruteForceReachability)",
					gd, bd, c.repro)
			}
		})
	}
}

// denseConfig is digestConfig with 30 hosts in 250 m × 250 m.
func denseConfig(c digestCase) core.Config {
	cfg := digestConfig(c)
	cfg.NumClients = 30
	cfg.SpaceWidth, cfg.SpaceHeight = 250, 250
	return cfg
}
