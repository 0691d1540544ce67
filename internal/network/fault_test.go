package network

import (
	"math"
	"testing"
	"time"

	"repro/internal/sim"
)

func TestChannelFaultsDropProb(t *testing.T) {
	if got := (ChannelFaults{}).DropProb(1000); got != 0 {
		t.Errorf("zero channel drop prob = %v, want 0", got)
	}
	if got := (ChannelFaults{LossProb: 1}).DropProb(0); got != 1 {
		t.Errorf("certain loss drop prob = %v, want 1", got)
	}
	// BER drops must grow with message size.
	c := ChannelFaults{BitErrorRate: 1e-6}
	small, large := c.DropProb(40), c.DropProb(4096)
	if !(small > 0 && large > small && large < 1) {
		t.Errorf("BER drop probs small=%v large=%v not monotonic in size", small, large)
	}
	// Loss and BER compose: p = 1-(1-loss)(1-ber-term).
	both := ChannelFaults{LossProb: 0.1, BitErrorRate: 1e-6}.DropProb(4096)
	want := 1 - (1-0.1)*(1-large)
	if math.Abs(both-want) > 1e-12 {
		t.Errorf("composed drop prob = %v, want %v", both, want)
	}
}

func TestFaultPlanConfigValidate(t *testing.T) {
	bad := []FaultPlanConfig{
		{P2P: ChannelFaults{LossProb: -0.1}},
		{Uplink: ChannelFaults{LossProb: 1.5}},
		{Downlink: ChannelFaults{BitErrorRate: 2}},
		{OutageDuration: time.Second},                                // duration without period
		{OutagePeriod: time.Second, OutageDuration: 2 * time.Second}, // duration >= period
		{CrashMTBF: time.Minute},                                     // no downtime range
		{CrashMTBF: time.Minute, CrashDownMin: 2 * time.Second, CrashDownMax: time.Second},
		{RampUp: -time.Second},
		{P2P: ChannelFaults{Burst: BurstFaults{GoodToBad: -0.1}}},
		{P2P: ChannelFaults{Burst: BurstFaults{GoodToBad: 0.1, BadToGood: 1.5}}},
		{Uplink: ChannelFaults{Burst: BurstFaults{GoodToBad: 0.1, BadToGood: 0.2, BadLoss: 2}}},
		{Downlink: ChannelFaults{Burst: BurstFaults{GoodToBad: 0.1, BadToGood: 0.2, GoodLoss: -1}}},
		// Absorbing bad state with total loss: every message dies forever.
		{P2P: ChannelFaults{Burst: BurstFaults{GoodToBad: 0.1, BadLoss: 1}}},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	good := FaultPlanConfig{
		P2P:            ChannelFaults{LossProb: 0.05, BitErrorRate: 1e-6},
		Uplink:         ChannelFaults{LossProb: 0.01},
		OutagePeriod:   time.Minute,
		OutageDuration: 5 * time.Second,
		CrashMTBF:      10 * time.Minute,
		CrashDownMin:   time.Second,
		CrashDownMax:   10 * time.Second,
	}
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	if good.Zero() {
		t.Error("non-trivial config reported Zero")
	}
	if !(FaultPlanConfig{}).Zero() {
		t.Error("empty config not Zero")
	}
	burst := FaultPlanConfig{P2P: ChannelFaults{Burst: BurstFaults{
		GoodToBad: 0.05, BadToGood: 0.2, BadLoss: 0.8,
	}}}
	if err := burst.Validate(); err != nil {
		t.Errorf("valid burst config rejected: %v", err)
	}
	if burst.Zero() {
		t.Error("burst-only config reported Zero")
	}
	// A ramp alone injects nothing: there is no loss to scale.
	if !(FaultPlanConfig{RampUp: time.Minute}).Zero() {
		t.Error("ramp-only config not Zero")
	}
}

func TestBurstZeroValueFastPath(t *testing.T) {
	// The zero BurstFaults value must keep the channel's zero() fast path:
	// no randomness consumed, byte-identical draws with a burst-free plan.
	if !(BurstFaults{}).zero() || (BurstFaults{GoodToBad: 0.1}).zero() || (BurstFaults{GoodLoss: 0.1}).zero() {
		t.Fatal("BurstFaults.zero misclassifies")
	}
	if !(ChannelFaults{}).zero() {
		t.Fatal("channel with zero burst not zero")
	}
	if (ChannelFaults{Burst: BurstFaults{GoodLoss: 0.1}}).zero() {
		t.Fatal("channel with good-state loss reported zero")
	}
	cfg := FaultPlanConfig{P2P: ChannelFaults{LossProb: 0.3}}
	plain, err := NewFaultPlan(cfg, sim.NewRNG(11).Stream("fault"))
	if err != nil {
		t.Fatal(err)
	}
	cfg.P2P.Burst = BurstFaults{} // explicit zero burst: same draw sequence
	zeroed, err := NewFaultPlan(cfg, sim.NewRNG(11).Stream("fault"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if plain.DropP2P(100, 0) != zeroed.DropP2P(100, 0) {
			t.Fatalf("draw %d diverged with zero-value burst config", i)
		}
	}
}

func TestBurstLossIsBursty(t *testing.T) {
	// With a near-lossless good state and a lethal bad state, drops must
	// cluster: overall loss sits between GoodLoss and BadLoss, and the
	// conditional drop rate after a drop far exceeds the marginal rate.
	cfg := FaultPlanConfig{P2P: ChannelFaults{Burst: BurstFaults{
		GoodToBad: 0.02, BadToGood: 0.2, GoodLoss: 0, BadLoss: 0.9,
	}}}
	p, err := NewFaultPlan(cfg, sim.NewRNG(5).Stream("fault"))
	if err != nil {
		t.Fatal(err)
	}
	const n = 20000
	drops, pairs, dropPairs := 0, 0, 0
	prev := false
	for i := 0; i < n; i++ {
		d := p.DropP2P(100, 0)
		if d {
			drops++
		}
		if i > 0 {
			pairs++
			if prev && d {
				dropPairs++
			}
		}
		prev = d
	}
	marginal := float64(drops) / n
	// Stationary bad-state probability is 0.02/(0.02+0.2) ≈ 0.0909, so the
	// marginal loss is ≈ 0.082.
	if marginal < 0.04 || marginal > 0.15 {
		t.Errorf("marginal burst loss %v implausible", marginal)
	}
	condAfterDrop := float64(dropPairs) / float64(drops)
	if condAfterDrop < 2*marginal {
		t.Errorf("loss not bursty: P(drop|drop)=%v vs marginal %v", condAfterDrop, marginal)
	}
	// Determinism: an identically seeded plan replays the same sequence.
	q, _ := NewFaultPlan(cfg, sim.NewRNG(5).Stream("fault"))
	r, _ := NewFaultPlan(cfg, sim.NewRNG(5).Stream("fault"))
	for i := 0; i < 2000; i++ {
		if q.DropP2P(100, 0) != r.DropP2P(100, 0) {
			t.Fatalf("burst draw %d diverged between same-seed plans", i)
		}
	}
}

func TestLossRampScalesStaticLoss(t *testing.T) {
	cfg := FaultPlanConfig{
		P2P:    ChannelFaults{LossProb: 1},
		RampUp: 100 * time.Second,
	}
	p, err := NewFaultPlan(cfg, sim.NewRNG(9).Stream("fault"))
	if err != nil {
		t.Fatal(err)
	}
	// At t=0 the ramp factor is 0: certain loss becomes certain delivery,
	// and sim.RNG.Bool(0) consumes no draw.
	for i := 0; i < 50; i++ {
		if p.DropP2P(100, 0) {
			t.Fatal("ramped loss dropped at t=0")
		}
	}
	// At and beyond RampUp the full probability applies.
	if !p.DropP2P(100, 100*time.Second) || !p.DropP2P(100, time.Hour) {
		t.Fatal("full loss not applied at/after ramp end")
	}
	// Midway the empirical rate tracks the scaled probability.
	drops := 0
	const n = 5000
	for i := 0; i < n; i++ {
		if p.DropP2P(100, 50*time.Second) {
			drops++
		}
	}
	if rate := float64(drops) / n; rate < 0.4 || rate > 0.6 {
		t.Errorf("mid-ramp drop rate %v, want ≈0.5", rate)
	}
}

func TestFaultPlanDeterminism(t *testing.T) {
	cfg := FaultPlanConfig{P2P: ChannelFaults{LossProb: 0.3}}
	a, err := NewFaultPlan(cfg, sim.NewRNG(7).Stream("fault"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewFaultPlan(cfg, sim.NewRNG(7).Stream("fault"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if a.DropP2P(100, 0) != b.DropP2P(100, 0) {
			t.Fatalf("draw %d diverged between same-seed plans", i)
		}
	}
}

func TestZeroPlanNeverDrops(t *testing.T) {
	p, err := NewFaultPlan(FaultPlanConfig{}, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if !p.Zero() {
		t.Error("zero plan not Zero")
	}
	for i := 0; i < 100; i++ {
		if p.DropP2P(4096, 0) || p.DropUplink(40, 0) || p.DropDownlink(4096, 0) {
			t.Fatal("zero plan dropped a message")
		}
	}
	if p.InOutage(time.Hour) || p.OutageSecondsUntil(time.Hour) != 0 {
		t.Error("zero plan reported an outage")
	}
	if p.CrashEnabled() {
		t.Error("zero plan enables crashes")
	}
}

func TestOutageWindows(t *testing.T) {
	p, err := NewFaultPlan(FaultPlanConfig{
		OutagePeriod:   time.Minute,
		OutageDuration: 5 * time.Second,
	}, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		at   time.Duration
		want bool
	}{
		{0, false}, // no outage at t=0 (k starts at 1)
		{3 * time.Second, false},
		{time.Minute, true}, // window start is inclusive
		{time.Minute + 4*time.Second, true},
		{time.Minute + 5*time.Second, false}, // window end is exclusive
		{2*time.Minute + time.Second, true},
	}
	for _, c := range cases {
		if got := p.InOutage(c.at); got != c.want {
			t.Errorf("InOutage(%v) = %v, want %v", c.at, got, c.want)
		}
	}
	// [60,65) and [120,125) fully inside, plus 3s of [180,185).
	if got := p.OutageSecondsUntil(183 * time.Second); math.Abs(got-13) > 1e-9 {
		t.Errorf("OutageSecondsUntil(183s) = %v, want 13", got)
	}
	if got := p.OutageSecondsUntil(30 * time.Second); got != 0 {
		t.Errorf("OutageSecondsUntil(30s) = %v, want 0", got)
	}
}

func TestCrashDraws(t *testing.T) {
	p, err := NewFaultPlan(FaultPlanConfig{
		CrashMTBF:    time.Minute,
		CrashDownMin: 2 * time.Second,
		CrashDownMax: 10 * time.Second,
	}, sim.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	if !p.CrashEnabled() {
		t.Fatal("crash churn not enabled")
	}
	var mean time.Duration
	for i := 0; i < 200; i++ {
		d := p.CrashDelay(NodeID(i % 4))
		if d <= 0 {
			t.Fatalf("non-positive crash delay %v", d)
		}
		mean += d / 200
		down := p.CrashDowntime(NodeID(i % 4))
		if down < 2*time.Second || down >= 10*time.Second {
			t.Fatalf("downtime %v outside [2s, 10s)", down)
		}
	}
	// Exponential with mean 60s: the sample mean of 200 draws stays well
	// within a factor of two.
	if mean < 30*time.Second || mean > 2*time.Minute {
		t.Errorf("crash delay sample mean %v implausible for MTBF 1m", mean)
	}
	// Per-host streams are independent of draw interleaving: the same
	// plan rebuilt and drawn host-by-host yields the same values.
	q, _ := NewFaultPlan(p.Config(), sim.NewRNG(3))
	first := q.CrashDelay(2)
	r, _ := NewFaultPlan(p.Config(), sim.NewRNG(3))
	r.CrashDelay(0) // interleave another host first
	if got := r.CrashDelay(2); got != first {
		t.Errorf("host-2 draw changed with interleaving: %v vs %v", got, first)
	}
}

func TestUnregisteredNodesCountAsDrops(t *testing.T) {
	k := sim.NewKernel()
	m, _ := newTestMedium(t, k)
	addPeer(t, m, 1, 0, 0)
	addPeer(t, m, 3, 10, 0)
	m.Broadcast(Message{Kind: KindRequest, From: 99, Size: 40}) // unknown sender
	m.Send(Message{Kind: KindReply, From: 1, To: 42, Size: 40}) // unknown destination
	m.Send(Message{Kind: KindReply, From: 77, To: 1, Size: 40}) // unknown sender
	m.Send(Message{Kind: KindReply, From: 1, To: 2, Size: 40})  // an ID between registered ones
	m.Broadcast(Message{Kind: KindRequest, From: -5, Size: 40}) // a negative ID
	m.SetConnected(2, true)
	if m.Connected(2) || m.Connected(-5) || !m.Connected(3) {
		t.Error("Connected wrong for an unregistered or a registered ID")
	}
	if err := k.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if got := m.Drops().Unregistered; got != 5 {
		t.Errorf("unregistered drops = %d, want 5", got)
	}
	if _, _, dropped, _ := m.Stats(); dropped != 5 {
		t.Errorf("Stats dropped = %d, want 5", dropped)
	}
}

func TestMediumDropCauses(t *testing.T) {
	k := sim.NewKernel()
	m, _ := newTestMedium(t, k)
	src := addPeer(t, m, 1, 0, 0)
	addPeer(t, m, 2, 500, 0) // out of range
	m.Send(Message{Kind: KindReply, From: 1, To: 2, Size: 40})
	if err := k.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if got := m.Drops().Unreachable; got != 1 {
		t.Errorf("unreachable drops = %d, want 1", got)
	}
	// Sender disconnects mid-transmission.
	m.Send(Message{Kind: KindReply, From: 1, To: 2, Size: 40})
	m.SetConnected(src.id, false)
	if err := k.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := m.Drops().SenderDisconnected; got != 1 {
		t.Errorf("sender-disconnected drops = %d, want 1", got)
	}
	d := m.Drops()
	if d.Total() != 2 {
		t.Errorf("total drops = %d, want 2", d.Total())
	}
}

func TestMediumFaultDrops(t *testing.T) {
	k := sim.NewKernel()
	m, meter := newTestMedium(t, k)
	addPeer(t, m, 1, 0, 0)
	dst := addPeer(t, m, 2, 50, 0)
	plan, err := NewFaultPlan(FaultPlanConfig{P2P: ChannelFaults{LossProb: 1}}, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	m.SetFaultPlan(plan)
	m.Send(Message{Kind: KindReply, From: 1, To: 2, Size: 100})
	m.Broadcast(Message{Kind: KindRequest, From: 1, Size: 100})
	if err := k.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if len(dst.inbox) != 0 {
		t.Errorf("destination received %d messages through certain loss", len(dst.inbox))
	}
	if got := m.Drops().Fault; got != 2 {
		t.Errorf("fault drops = %d, want 2", got)
	}
	// The corrupted frames were still heard: the destination paid receive
	// energy for both the unicast and the broadcast.
	pm := Power
	want := pm.Recv.Energy(100) + pm.BRecv.Energy(100)
	if got := meter.Node(2); got != want {
		t.Errorf("receiver energy = %v, want %v", got, want)
	}
}

func TestServerLinkFaultAndOutageDrops(t *testing.T) {
	k := sim.NewKernel()
	link, err := NewServerLink(k, ServerLinkConfig{
		UplinkKbps: 200, DownlinkKbps: 2000,
	}, NewMeter())
	if err != nil {
		t.Fatal(err)
	}
	plan, err := NewFaultPlan(FaultPlanConfig{
		Uplink:         ChannelFaults{LossProb: 1},
		OutagePeriod:   100 * time.Millisecond,
		OutageDuration: 50 * time.Millisecond,
	}, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	link.SetFaultPlan(plan)
	handled, delivered := 0, 0
	link.SetHandler(func(*Message) { handled++ })
	link.SetDeliver(func(NodeID, *Message) bool { delivered++; return true })

	// Uplink: certain loss destroys the request before the handler.
	link.SendUp(Message{Kind: KindServerRequest, From: 1, Size: 40})
	// Downlink: no random loss, but the transmission lands inside the
	// outage window [100ms, 150ms).
	k.Schedule(105*time.Millisecond, func() {
		link.SendDown(Message{Kind: KindServerReply, To: 1, Size: 500})
	})
	// And one reply between outage windows gets through.
	k.Schedule(160*time.Millisecond, func() {
		link.SendDown(Message{Kind: KindServerReply, To: 1, Size: 500})
	})
	if err := k.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if handled != 0 {
		t.Errorf("handler ran %d times through certain uplink loss", handled)
	}
	if delivered != 1 {
		t.Errorf("delivered = %d, want 1 (outage reply destroyed)", delivered)
	}
	d := link.Drops()
	if d.UplinkFault != 1 || d.DownlinkOutage != 1 || d.DownlinkFault != 0 {
		t.Errorf("link drops = %+v", d)
	}
	if _, _, downDropped := link.Stats(); downDropped != 1 {
		t.Errorf("Stats downDropped = %d, want 1", downDropped)
	}
}
