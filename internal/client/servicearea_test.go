package client

import (
	"testing"
	"time"
)

// centre is the middle of serviceAreaConfig's 1 km square, where the MSS
// sits.
const centre = 500

// serviceAreaConfig bounds MSS coverage to 200 m around centre.
func serviceAreaConfig(scheme Scheme) Config {
	cfg := testClientConfig(scheme)
	cfg.ServiceAreaRadius = 200
	cfg.SpaceWidth, cfg.SpaceHeight = 2*centre, 2*centre
	return cfg
}

func TestOutsideServiceAreaMissFails(t *testing.T) {
	h := newHarness(t, 1, false)
	a := h.addHost(1, centre+500, centre, serviceAreaConfig(SchemeSC)) // outside coverage
	a.beginRequest(7)
	h.run(time.Second)
	if got := h.collector.OutcomeCount(OutcomeFailure); got != 1 {
		t.Fatalf("outcomes = %v, want one failure", h.collector.outcomes)
	}
	if got := h.collector.OutcomeCount(OutcomeServerRequest); got != 0 {
		t.Errorf("server requests = %d, want 0", got)
	}
}

func TestInsideServiceAreaMissSucceeds(t *testing.T) {
	h := newHarness(t, 1, false)
	a := h.addHost(1, centre+100, centre, serviceAreaConfig(SchemeSC))
	a.beginRequest(7)
	h.run(time.Second)
	if got := h.collector.OutcomeCount(OutcomeServerRequest); got != 1 {
		t.Fatalf("outcomes = %v, want one server request", h.collector.outcomes)
	}
}

func TestOutsideServiceAreaLocalHitStillWorks(t *testing.T) {
	h := newHarness(t, 1, false)
	a := h.addHost(1, centre+500, centre, serviceAreaConfig(SchemeSC))
	if err := a.Preload(5, time.Hour); err != nil {
		t.Fatal(err)
	}
	a.beginRequest(5)
	h.run(time.Second)
	if got := h.collector.OutcomeCount(OutcomeLocalHit); got != 1 {
		t.Fatalf("outcomes = %v, want local hit", h.collector.outcomes)
	}
}

func TestOutsideServiceAreaPeerHitStillWorks(t *testing.T) {
	h := newHarness(t, 2, false)
	a := h.addHost(1, centre+500, centre, serviceAreaConfig(SchemeCOCA))
	b := h.addHost(2, centre+550, centre, serviceAreaConfig(SchemeCOCA))
	if err := b.Preload(9, time.Hour); err != nil {
		t.Fatal(err)
	}
	a.beginRequest(9)
	h.run(time.Second)
	if got := h.collector.OutcomeCount(OutcomeGlobalHit); got != 1 {
		t.Fatalf("outcomes = %v, want global hit outside coverage", h.collector.outcomes)
	}
}

func TestOutsideServiceAreaValidationFails(t *testing.T) {
	h := newHarness(t, 1, false)
	a := h.addHost(1, centre+500, centre, serviceAreaConfig(SchemeSC))
	if err := a.Preload(5, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	h.run(time.Second) // copy expires
	a.beginRequest(5)
	h.run(time.Second)
	if got := h.collector.OutcomeCount(OutcomeFailure); got != 1 {
		t.Fatalf("outcomes = %v, want failure (cannot validate)", h.collector.outcomes)
	}
}

func TestZeroRadiusMeansUnlimitedCoverage(t *testing.T) {
	h := newHarness(t, 1, false)
	cfg := testClientConfig(SchemeSC) // ServiceAreaRadius zero
	a := h.addHost(1, 100000, 0, cfg)
	a.beginRequest(7)
	h.run(time.Second)
	if got := h.collector.OutcomeCount(OutcomeServerRequest); got != 1 {
		t.Fatalf("outcomes = %v, want server request with unlimited coverage", h.collector.outcomes)
	}
}
