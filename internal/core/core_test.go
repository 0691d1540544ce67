package core

import (
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
)

// smallConfig returns a quick configuration for CI-scale end-to-end tests.
func smallConfig(scheme Scheme) Config {
	cfg := DefaultConfig()
	cfg.Scheme = scheme
	cfg.NumClients = 30
	cfg.NData = 2000
	cfg.AccessRange = 200
	cfg.CacheSize = 50
	cfg.WarmupRequests = 40
	cfg.MeasuredRequests = 60
	return cfg
}

// TestConfigValidation requires core.New to refuse every configuration
// the shared client.Config.Validate rejects; the full table of Validate's
// cases lives next to it in internal/client.
func TestConfigValidation(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero clients", func(c *Config) { c.NumClients = 0 }},
		{"zero data", func(c *Config) { c.NData = 0 }},
		{"range beyond catalog", func(c *Config) { c.AccessRange = c.NData + 1 }},
		{"zero group", func(c *Config) { c.GroupSize = 0 }},
		{"negative radius", func(c *Config) { c.GroupRadius = -1 }},
		{"zero interarrival", func(c *Config) { c.MeanInterarrival = 0 }},
		{"zero downlink", func(c *Config) { c.ServerDownlinkKbps = 0 }},
		{"zero range", func(c *Config) { c.TranRange = 0 }},
		{"negative update rate", func(c *Config) { c.DataUpdateRate = -1 }},
		{"bad delta", func(c *Config) { c.DistanceThreshold = 0 }},
		{"bad cache", func(c *Config) { c.CacheSize = 0 }},
		{"unregistered scheme", func(c *Config) { c.Scheme = 99 }},
		{"unknown delivery model", func(c *Config) { c.Delivery = 7 }},
		{"unknown mobility model", func(c *Config) { c.Mobility = 5 }},
		{"unknown group criteria", func(c *Config) { c.GroupCriteria = 9 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := smallConfig(SchemeGroCoca)
			tt.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Error("invalid config accepted")
			}
			if _, err := New(cfg); err == nil {
				t.Error("New accepted invalid config")
			}
		})
	}
	if err := smallConfig(SchemeGroCoca).Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	for _, scheme := range Schemes() {
		if err := smallConfig(scheme).Validate(); err != nil {
			t.Errorf("%v: valid config rejected: %v", scheme, err)
		}
	}
}

// TestUnknownSchemeError requires the rejection of an unregistered scheme
// to name every registered spelling, so the message stays a usable
// catalog as schemes are added.
func TestUnknownSchemeError(t *testing.T) {
	cfg := smallConfig(SchemeGroCoca)
	cfg.Scheme = 99
	err := cfg.Validate()
	if err == nil {
		t.Fatal("unregistered scheme accepted")
	}
	if _, err := New(cfg); err == nil {
		t.Error("New accepted an unregistered scheme")
	}
	for _, flag := range SchemeFlags() {
		if !strings.Contains(err.Error(), flag) {
			t.Errorf("error %q does not list registered scheme %q", err, flag)
		}
	}
	if _, err := ParseScheme("bogus"); err == nil {
		t.Error("ParseScheme accepted an unknown spelling")
	}
}

func TestEndToEndSchemes(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end simulation in -short mode")
	}
	results := map[Scheme]Results{}
	for _, scheme := range Schemes() {
		r, err := Run(smallConfig(scheme))
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		if !r.Completed {
			t.Errorf("%v: run hit safety horizon", scheme)
		}
		if r.Requests == 0 {
			t.Fatalf("%v: no measured requests", scheme)
		}
		total := r.LocalHitRatio + r.GlobalHitRatio + r.ServerRequestRatio
		if total < 0.999 || total > 1.001 {
			t.Errorf("%v: outcome ratios sum to %v", scheme, total)
		}
		t.Logf("%v", r)
		results[scheme] = r
	}
	// Structural expectations (the headline result of the paper):
	sc, coca, gro := results[SchemeSC], results[SchemeCOCA], results[SchemeGroCoca]
	if sc.GlobalHitRatio != 0 {
		t.Errorf("SC has global hits: %v", sc.GlobalHitRatio)
	}
	if coca.GlobalHitRatio == 0 {
		t.Error("COCA has no global hits")
	}
	if gro.GlobalHitRatio == 0 {
		t.Error("GroCoca has no global hits")
	}
	if coca.ServerRequestRatio >= sc.ServerRequestRatio {
		t.Errorf("COCA server ratio %v not below SC %v", coca.ServerRequestRatio, sc.ServerRequestRatio)
	}
}

func TestDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end simulation in -short mode")
	}
	cfg := smallConfig(SchemeGroCoca)
	cfg.NumClients = 15
	cfg.WarmupRequests = 20
	cfg.MeasuredRequests = 30
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.MeanLatency != b.MeanLatency || a.Requests != b.Requests ||
		a.GlobalHitRatio != b.GlobalHitRatio || a.TotalEnergy != b.TotalEnergy ||
		a.Events != b.Events {
		t.Errorf("same seed diverged:\n  %+v\n  %+v", a, b)
	}
	cfg.Seed = 2
	c, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Events == c.Events && a.MeanLatency == c.MeanLatency {
		t.Error("different seeds produced identical runs")
	}
}

func TestDisconnectionRunCompletes(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end simulation in -short mode")
	}
	cfg := smallConfig(SchemeGroCoca)
	cfg.NumClients = 15
	cfg.WarmupRequests = 15
	cfg.MeasuredRequests = 25
	cfg.DiscProb = 0.2
	cfg.DiscMin = 2 * time.Second
	cfg.DiscMax = 10 * time.Second
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Completed {
		t.Error("disconnection run hit horizon")
	}
	if r.Requests == 0 {
		t.Error("no measured requests")
	}
}

func TestUpdateRateRunProducesValidations(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end simulation in -short mode")
	}
	cfg := smallConfig(SchemeSC)
	cfg.NumClients = 15
	cfg.WarmupRequests = 20
	cfg.MeasuredRequests = 40
	cfg.DataUpdateRate = 20
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Aux.Validations == 0 {
		t.Error("no TTL validations despite updates")
	}
}

func TestServiceAreaFailures(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end simulation in -short mode")
	}
	cfg := smallConfig(SchemeSC)
	cfg.NumClients = 15
	cfg.WarmupRequests = 10
	cfg.MeasuredRequests = 40
	// Cover only the central disc of the 1000x1000 space; roaming hosts
	// regularly leave coverage.
	cfg.ServiceAreaRadius = 300
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.FailureRatio == 0 {
		t.Error("no access failures despite limited service area")
	}
	total := r.LocalHitRatio + r.GlobalHitRatio + r.ServerRequestRatio + r.FailureRatio
	if total < 0.999 || total > 1.001 {
		t.Errorf("outcome ratios sum to %v", total)
	}
	// Unlimited coverage: no failures.
	cfg.ServiceAreaRadius = 0
	r, err = Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.FailureRatio != 0 {
		t.Errorf("failures with unlimited coverage: %v", r.FailureRatio)
	}
}

func TestResultsString(t *testing.T) {
	r := Results{
		Scheme:             "GroCoca",
		MeanLatency:        12 * time.Millisecond,
		LocalHitRatio:      0.3,
		GlobalHitRatio:     0.5,
		ServerRequestRatio: 0.2,
		EnergyPerGCH:       12345,
		Requests:           100,
	}
	s := r.String()
	for _, want := range []string{"GroCoca", "12ms", "30.0%", "50.0%", "20.0%", "12345", "n=100"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

// TestRandomizedConfigsInvariants drives a spread of bounded random
// configurations through full runs and checks the structural invariants.
// Each case is deterministic in its seed, so failures reproduce exactly.
func TestRandomizedConfigsInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end simulation in -short mode")
	}
	for seed := int64(1); seed <= 6; seed++ {
		rng := sim.NewRNG(seed)
		cfg := DefaultConfig()
		cfg.Seed = seed
		schemes := Schemes()
		cfg.Scheme = schemes[rng.Intn(len(schemes))]
		cfg.NumClients = 5 + rng.Intn(20)
		cfg.GroupSize = 1 + rng.Intn(6)
		cfg.NData = 300 + rng.Intn(1000)
		cfg.AccessRange = 50 + rng.Intn(min(cfg.NData-50, 300))
		cfg.CacheSize = 10 + rng.Intn(40)
		cfg.Zipf = rng.Float64()
		cfg.HopDist = 1 + rng.Intn(2)
		cfg.DataUpdateRate = float64(rng.Intn(10))
		if rng.Intn(2) == 1 {
			cfg.DiscProb = rng.Float64() * 0.2
			cfg.DiscMin = time.Second
			cfg.DiscMax = 10 * time.Second
		}
		cfg.WarmupRequests = 5 + rng.Intn(10)
		cfg.MeasuredRequests = 10 + rng.Intn(20)
		r, err := Run(cfg)
		if err != nil {
			t.Fatalf("seed %d (%+v): %v", seed, cfg, err)
		}
		if !r.Completed {
			t.Errorf("seed %d: hit horizon", seed)
		}
		total := r.LocalHitRatio + r.GlobalHitRatio + r.ServerRequestRatio + r.FailureRatio
		if r.Requests > 0 && (total < 0.999 || total > 1.001) {
			t.Errorf("seed %d: ratios sum to %v", seed, total)
		}
		if r.MeanLatency < 0 || r.TotalEnergy < 0 {
			t.Errorf("seed %d: negative metrics %+v", seed, r)
		}
		if cfg.Scheme == SchemeSC && r.GlobalHitRatio != 0 {
			t.Errorf("seed %d: SC produced global hits", seed)
		}
	}
}
