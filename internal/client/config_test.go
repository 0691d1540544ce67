package client

import (
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/mobility"
	"repro/internal/sim"
	"repro/internal/strategy"
)

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name    string
		mutate  func(*Config)
		wantErr bool
	}{
		{"valid SC", func(c *Config) { c.Scheme = SchemeSC }, false},
		{"valid COCA", func(c *Config) { c.Scheme = SchemeCOCA }, false},
		{"valid GroCoca", func(*Config) {}, false},
		{"unknown scheme", func(c *Config) { c.Scheme = 0 }, true},
		{"unregistered scheme", func(c *Config) { c.Scheme = 99 }, true},
		{"zero clients", func(c *Config) { c.NumClients = 0 }, true},
		{"zero data", func(c *Config) { c.NData = 0 }, true},
		{"range beyond catalog", func(c *Config) { c.AccessRange = c.NData + 1 }, true},
		{"zero group", func(c *Config) { c.GroupSize = 0 }, true},
		{"negative radius", func(c *Config) { c.GroupRadius = -1 }, true},
		{"zero interarrival", func(c *Config) { c.MeanInterarrival = 0 }, true},
		{"zero downlink", func(c *Config) { c.ServerDownlinkKbps = 0 }, true},
		{"zero range", func(c *Config) { c.TranRange = 0 }, true},
		{"negative update rate", func(c *Config) { c.DataUpdateRate = -1 }, true},
		{"bad delta", func(c *Config) { c.DistanceThreshold = 0 }, true},
		{"zero cache", func(c *Config) { c.CacheSize = 0 }, true},
		{"zero data size", func(c *Config) { c.DataSize = 0 }, true},
		{"zero hops", func(c *Config) { c.HopDist = 0 }, true},
		{"bad disc prob", func(c *Config) { c.DiscProb = 1.5 }, true},
		{"disc without durations", func(c *Config) {
			c.DiscProb = 0.1
			c.DiscMin, c.DiscMax = 0, 0
		}, true},
		{"disc with durations", func(c *Config) {
			c.DiscProb = 0.1
			c.DiscMin = time.Second
			c.DiscMax = 5 * time.Second
		}, false},
		{"bad sig bits", func(c *Config) { c.SigBits = 0 }, true},
		{"bad replace window", func(c *Config) { c.ReplaceCandidate = 0 }, true},
		{"bad sample", func(c *Config) { c.PeerAccessSample = -0.1 }, true},
		{"bad measured", func(c *Config) { c.MeasuredRequests = 0 }, true},
		{"SC ignores p2p fields", func(c *Config) {
			c.Scheme = SchemeSC
			c.HopDist = 0
		}, false},
		{"fixed timeout alone", func(c *Config) { c.FixedTimeout = time.Second }, false},
		{"negative fixed timeout", func(c *Config) {
			c.FixedTimeout = -time.Second
		}, true},
		{"SC skips timeout checks", func(c *Config) {
			c.Scheme = SchemeSC
			c.FixedTimeout = -time.Second
		}, false},
		{"unknown delivery model", func(c *Config) { c.Delivery = 7 }, true},
		{"unknown mobility model", func(c *Config) { c.Mobility = 5 }, true},
		{"unknown group criteria", func(c *Config) { c.GroupCriteria = 9 }, true},
		{"rescue factor below 1", func(c *Config) { c.ServerRescueFactor = 0.5 }, true},
		{"zero rescue factor", func(c *Config) { c.ServerRescueFactor = 0 }, true},
		{"rescue factor 1", func(c *Config) { c.ServerRescueFactor = 1 }, false},
		{"zero shift fraction", func(c *Config) {
			c.HotspotShiftEvery = time.Minute
			c.HotspotShiftFraction = 0
		}, true},
		{"shift fraction above 1", func(c *Config) {
			c.HotspotShiftEvery = time.Minute
			c.HotspotShiftFraction = 1.5
		}, true},
		{"whole shift", func(c *Config) {
			c.HotspotShiftEvery = time.Minute
			c.HotspotShiftFraction = 1
		}, false},
		{"shift fraction unused without shifts", func(c *Config) { c.HotspotShiftFraction = 0 }, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := testClientConfig(SchemeGroCoca)
			tt.mutate(&cfg)
			if err := cfg.Validate(); (err != nil) != tt.wantErr {
				t.Errorf("err = %v, wantErr %v", err, tt.wantErr)
			}
			if !tt.wantErr {
				return
			}
			h := newHarness(t, 1, false)
			if _, err := NewHost(h.k, 1, &cfg, cfg.WarmupRequests, cfg.MeasuredRequests, mobility.Fixed{At: geo.Point{}},
				h.medium, h.link, nil, h.collector, sim.Seed(1)); err == nil {
				t.Error("NewHost accepted invalid config")
			}
		})
	}
	for _, scheme := range strategy.IDs() {
		if err := testClientConfig(scheme).Validate(); err != nil {
			t.Errorf("%v: valid config rejected: %v", scheme, err)
		}
	}
}
