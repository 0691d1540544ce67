package network

import (
	"fmt"
	"math"
	"time"

	"repro/internal/sim"
)

// BurstFaults parameterises the Gilbert–Elliott two-state burst-loss mode
// of one channel: a hidden good/bad Markov chain advanced once per message
// draw, with a per-state loss probability. The mode is enabled by a
// positive GoodToBad transition probability; the zero value contributes
// nothing and consumes no randomness.
type BurstFaults struct {
	// GoodToBad is the per-message probability of entering the bad
	// (bursty) state; zero disables the burst mode entirely.
	GoodToBad float64
	// BadToGood is the per-message probability of leaving the bad state;
	// its reciprocal is the mean burst length in messages.
	BadToGood float64
	// GoodLoss and BadLoss are the per-message loss probabilities while
	// the chain is in the respective state.
	GoodLoss float64
	// BadLoss is the loss probability inside a burst; values near 1 model
	// deep fades that destroy nearly every frame.
	BadLoss float64
}

// Enabled reports whether the burst chain can ever leave the good state —
// the gate for both the state advance and its randomness consumption.
func (b BurstFaults) Enabled() bool { return b.GoodToBad > 0 }

// zero reports whether the burst mode contributes no loss at all.
func (b BurstFaults) zero() bool { return !b.Enabled() && b.GoodLoss <= 0 }

// validate bounds the burst parameters.
func (b BurstFaults) validate(name string) error {
	for _, p := range []struct {
		label string
		v     float64
	}{
		{"good→bad transition", b.GoodToBad},
		{"bad→good transition", b.BadToGood},
		{"good-state loss", b.GoodLoss},
		{"bad-state loss", b.BadLoss},
	} {
		if !(p.v >= 0 && p.v <= 1) {
			return fmt.Errorf("network: %s burst %s probability %v outside [0, 1]", name, p.label, p.v)
		}
	}
	if b.Enabled() && b.BadToGood <= 0 && b.BadLoss >= 1 {
		return fmt.Errorf("network: %s burst mode has an absorbing bad state with total loss; give BadToGood a positive probability", name)
	}
	return nil
}

// ChannelFaults parameterises the random loss model of one channel: an
// i.i.d. per-message loss probability composed with a size-dependent
// bit-error drop (a message of n bytes survives the bit errors with
// probability (1-BER)^(8n)) and, optionally, a Gilbert–Elliott burst-loss
// chain layered on top.
type ChannelFaults struct {
	// LossProb is the size-independent per-message loss probability.
	LossProb float64
	// BitErrorRate is the per-bit corruption probability; a single
	// corrupted bit destroys the whole frame.
	BitErrorRate float64
	// Burst is the optional Gilbert–Elliott burst-loss mode; the zero
	// value keeps the plain i.i.d. model.
	Burst BurstFaults
}

// DropProb returns the overall drop probability for a message of the
// given size in bytes.
func (c ChannelFaults) DropProb(size int) float64 {
	p := c.LossProb
	if c.BitErrorRate > 0 && size > 0 {
		pBits := 1 - math.Pow(1-c.BitErrorRate, float64(8*size))
		p = 1 - (1-p)*(1-pBits)
	}
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}

// zero reports whether the channel never drops.
func (c ChannelFaults) zero() bool {
	return c.LossProb <= 0 && c.BitErrorRate <= 0 && c.Burst.zero()
}

// validate bounds the channel parameters.
func (c ChannelFaults) validate(name string) error {
	if !(c.LossProb >= 0 && c.LossProb <= 1) {
		return fmt.Errorf("network: %s loss probability %v outside [0, 1]", name, c.LossProb)
	}
	if !(c.BitErrorRate >= 0 && c.BitErrorRate <= 1) {
		return fmt.Errorf("network: %s bit error rate %v outside [0, 1]", name, c.BitErrorRate)
	}
	return c.Burst.validate(name)
}

// FaultPlanConfig composes the per-channel fault models of one run: random
// loss on the P2P medium and the server uplink/downlink, scheduled burst
// outages of the infrastructure channel, and mobile-host crash/recover
// churn. The zero value injects nothing.
type FaultPlanConfig struct {
	// P2P is the loss model of the shared P2P medium (applied per
	// receiver on broadcasts).
	P2P ChannelFaults
	// Uplink is the loss model of the client→MSS channel.
	Uplink ChannelFaults
	// Downlink is the loss model of the MSS→client channel.
	Downlink ChannelFaults

	// OutagePeriod and OutageDuration schedule periodic infrastructure
	// outages: the uplink and downlink destroy every transmission
	// completing inside [k·Period, k·Period+Duration) for k ≥ 1. Both
	// zero disables outages.
	OutagePeriod   time.Duration
	OutageDuration time.Duration

	// CrashMTBF is the mean up-time between host crashes (exponentially
	// distributed, drawn per host); zero disables crash churn. A crashed
	// host loses its in-flight request state and stays down for a
	// uniform duration in [CrashDownMin, CrashDownMax).
	CrashMTBF    time.Duration
	CrashDownMin time.Duration
	CrashDownMax time.Duration

	// RampUp linearly scales the static per-channel loss probabilities
	// from 0 at t=0 to their configured value at t=RampUp, so a run warms
	// up under a healthy network before degrading. Zero applies full loss
	// immediately. Burst-state loss is not ramped — the chain itself
	// already models onset.
	RampUp time.Duration
}

// Zero reports whether the plan injects no faults at all.
func (c FaultPlanConfig) Zero() bool {
	return c.P2P.zero() && c.Uplink.zero() && c.Downlink.zero() &&
		c.OutageDuration <= 0 && c.CrashMTBF <= 0
}

// Validate reports whether the fault parameters are usable.
func (c FaultPlanConfig) Validate() error {
	if err := c.P2P.validate("p2p"); err != nil {
		return err
	}
	if err := c.Uplink.validate("uplink"); err != nil {
		return err
	}
	if err := c.Downlink.validate("downlink"); err != nil {
		return err
	}
	if c.OutagePeriod < 0 || c.OutageDuration < 0 {
		return fmt.Errorf("network: negative outage schedule (%v, %v)", c.OutagePeriod, c.OutageDuration)
	}
	if c.OutageDuration > 0 {
		if c.OutagePeriod <= 0 {
			return fmt.Errorf("network: outage duration %v needs a positive period", c.OutageDuration)
		}
		if c.OutageDuration >= c.OutagePeriod {
			return fmt.Errorf("network: outage duration %v must be shorter than period %v", c.OutageDuration, c.OutagePeriod)
		}
	}
	if c.CrashMTBF < 0 {
		return fmt.Errorf("network: negative crash MTBF %v", c.CrashMTBF)
	}
	if c.CrashMTBF > 0 {
		if c.CrashDownMin <= 0 {
			return fmt.Errorf("network: crash downtime minimum %v must be positive", c.CrashDownMin)
		}
		if c.CrashDownMax < c.CrashDownMin {
			return fmt.Errorf("network: crash downtime range [%v, %v] invalid", c.CrashDownMin, c.CrashDownMax)
		}
	}
	if c.RampUp < 0 {
		return fmt.Errorf("network: negative loss ramp-up %v", c.RampUp)
	}
	return nil
}

// channelState couples one channel's loss model with its private RNG
// stream and, when the Gilbert–Elliott mode is enabled, the current
// Markov state of the burst chain.
type channelState struct {
	cfg ChannelFaults
	rng *sim.RNG
	bad bool
}

// drop draws whether a message of the given size is destroyed at the
// given simulation time. The static loss probability is scaled by the
// plan's ramp factor; the burst chain, when enabled, is advanced one step
// and its per-state loss composed on top. A channel whose model is zero
// never consumes randomness (sim.RNG.Bool skips the draw at p ≤ 0), and a
// disabled burst mode consumes none either — so zero-fault runs stay
// byte-identical to runs without a plan installed.
func (c *channelState) drop(size int, now, rampUp time.Duration) bool {
	p := c.cfg.DropProb(size)
	if rampUp > 0 && now < rampUp {
		p *= float64(now) / float64(rampUp)
	}
	if c.cfg.Burst.Enabled() {
		b := c.cfg.Burst
		if c.bad {
			if c.rng.Bool(b.BadToGood) {
				c.bad = false
			}
		} else if c.rng.Bool(b.GoodToBad) {
			c.bad = true
		}
		q := b.GoodLoss
		if c.bad {
			q = b.BadLoss
		}
		p = 1 - (1-p)*(1-q)
	}
	return c.rng.Bool(p)
}

// FaultPlan is a seeded, deterministic source of injected faults. Each
// channel draws from its own named RNG sub-stream and every host has a
// private crash stream, so the injected fault sequence is a pure function
// of (seed, traffic) and replays identically across runs. A plan whose
// config is Zero never consumes randomness, making a zero-fault run
// byte-identical to a run with no plan installed.
type FaultPlan struct {
	cfg     FaultPlanConfig
	p2p     channelState
	up      channelState
	down    channelState
	crashes *sim.RNG
	perHost map[NodeID]*sim.RNG
}

// NewFaultPlan builds a plan rooted at the given RNG (conventionally the
// simulation root's "fault" stream).
func NewFaultPlan(cfg FaultPlanConfig, rng *sim.RNG) (*FaultPlan, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &FaultPlan{
		cfg:     cfg,
		p2p:     channelState{cfg: cfg.P2P, rng: rng.Stream("p2p")},
		up:      channelState{cfg: cfg.Uplink, rng: rng.Stream("uplink")},
		down:    channelState{cfg: cfg.Downlink, rng: rng.Stream("downlink")},
		crashes: rng.Stream("crash"),
		perHost: make(map[NodeID]*sim.RNG),
	}, nil
}

// Config returns the plan's parameters.
func (p *FaultPlan) Config() FaultPlanConfig { return p.cfg }

// Zero reports whether the plan injects no faults.
func (p *FaultPlan) Zero() bool { return p.cfg.Zero() }

// DropP2P draws whether a P2P frame of the given size is destroyed at the
// given simulation time.
func (p *FaultPlan) DropP2P(size int, now time.Duration) bool {
	return p.p2p.drop(size, now, p.cfg.RampUp)
}

// DropUplink draws whether an uplink message of the given size is
// destroyed by random loss at the given simulation time (outages are
// checked separately via InOutage).
func (p *FaultPlan) DropUplink(size int, now time.Duration) bool {
	return p.up.drop(size, now, p.cfg.RampUp)
}

// DropDownlink draws whether a downlink message of the given size is
// destroyed by random loss at the given simulation time (outages are
// checked separately via InOutage).
func (p *FaultPlan) DropDownlink(size int, now time.Duration) bool {
	return p.down.drop(size, now, p.cfg.RampUp)
}

// InOutage reports whether the infrastructure channel is inside a
// scheduled outage window at the given simulation time.
func (p *FaultPlan) InOutage(now time.Duration) bool {
	if p.cfg.OutageDuration <= 0 || p.cfg.OutagePeriod <= 0 {
		return false
	}
	k := now / p.cfg.OutagePeriod
	return k >= 1 && now-k*p.cfg.OutagePeriod < p.cfg.OutageDuration
}

// OutageSecondsUntil returns the total scheduled outage time in [0, t],
// in seconds — the "outage seconds" surfaced in the run's fault report.
func (p *FaultPlan) OutageSecondsUntil(t time.Duration) float64 {
	if p.cfg.OutageDuration <= 0 || p.cfg.OutagePeriod <= 0 || t <= 0 {
		return 0
	}
	var total time.Duration
	for k := time.Duration(1); k*p.cfg.OutagePeriod <= t; k++ {
		overlap := t - k*p.cfg.OutagePeriod
		if overlap > p.cfg.OutageDuration {
			overlap = p.cfg.OutageDuration
		}
		total += overlap
	}
	return total.Seconds()
}

// CrashEnabled reports whether the plan injects host crash churn.
func (p *FaultPlan) CrashEnabled() bool { return p.cfg.CrashMTBF > 0 }

// CrashDelay draws the host's next up-time until it crashes,
// exponentially distributed with mean CrashMTBF.
func (p *FaultPlan) CrashDelay(id NodeID) time.Duration {
	return p.hostRNG(id).Exp(p.cfg.CrashMTBF)
}

// CrashDowntime draws how long the host stays down after a crash,
// uniform in [CrashDownMin, CrashDownMax).
func (p *FaultPlan) CrashDowntime(id NodeID) time.Duration {
	return p.hostRNG(id).UniformDuration(p.cfg.CrashDownMin, p.cfg.CrashDownMax)
}

// hostRNG lazily derives the per-host crash stream. Derivation is by
// name, so the draw sequence of one host is independent of every other
// host's crash schedule.
func (p *FaultPlan) hostRNG(id NodeID) *sim.RNG {
	if r, ok := p.perHost[id]; ok {
		return r
	}
	r := p.crashes.Stream(fmt.Sprintf("host-%d", id))
	p.perHost[id] = r
	return r
}
