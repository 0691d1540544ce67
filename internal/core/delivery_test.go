package core

import "testing"

// TestDeliveryModels checks the introduction's comparison of data
// dissemination models: pull is fastest at this scale, pure push pays about
// half a broadcast cycle per miss plus heavy listening power, and hybrid
// lands in between.
func TestDeliveryModels(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end simulation in -short mode")
	}
	run := func(d DeliveryModel) Results {
		cfg := smallConfig(SchemeSC)
		cfg.NumClients = 15
		cfg.WarmupRequests = 10
		cfg.MeasuredRequests = 30
		cfg.Delivery = d
		r, err := Run(cfg)
		if err != nil {
			t.Fatalf("%v: %v", d, err)
		}
		return r
	}
	pull := run(DeliveryPull)
	push := run(DeliveryPush)
	hybrid := run(DeliveryHybrid)

	if !(pull.MeanLatency < hybrid.MeanLatency && hybrid.MeanLatency < push.MeanLatency) {
		t.Errorf("latency ordering violated: pull %v, hybrid %v, push %v",
			pull.MeanLatency, hybrid.MeanLatency, push.MeanLatency)
	}
	// Push never uses the downlink for data.
	if push.Aux.TuneIns == 0 || push.Aux.BroadcastDeliveries == 0 {
		t.Error("push produced no broadcast deliveries")
	}
	if push.DownlinkUtilization >= pull.DownlinkUtilization {
		t.Errorf("push downlink utilization %.3f not below pull %.3f",
			push.DownlinkUtilization, pull.DownlinkUtilization)
	}
	// The broadcast channel's power toll: push consumes far more energy
	// than pull (idle listening while waiting for slots).
	if push.TotalEnergy <= pull.TotalEnergy {
		t.Errorf("push energy %.0f not above pull %.0f", push.TotalEnergy, pull.TotalEnergy)
	}
	// Hybrid serves some misses from the disk and the rest by pulling.
	if hybrid.Aux.BroadcastDeliveries == 0 {
		t.Error("hybrid never used the broadcast disk")
	}
	if hybrid.DownlinkUtilization == 0 {
		t.Error("hybrid never pulled")
	}
	// Delivery model names render for tables.
	if DeliveryPull.String() != "pull" || DeliveryPush.String() != "push" || DeliveryHybrid.String() != "hybrid" {
		t.Error("delivery model names wrong")
	}
}

// TestDeliveryValidation checks the broadcast-specific config constraints.
func TestDeliveryValidation(t *testing.T) {
	cfg := smallConfig(SchemeSC)
	cfg.Delivery = DeliveryPush
	cfg.BroadcastKbps = 0
	if err := cfg.Validate(); err == nil {
		t.Error("zero broadcast bandwidth accepted")
	}
	cfg = smallConfig(SchemeSC)
	cfg.Delivery = DeliveryHybrid
	cfg.BroadcastHotItems = 0
	if err := cfg.Validate(); err == nil {
		t.Error("zero hot set accepted for hybrid")
	}
}
