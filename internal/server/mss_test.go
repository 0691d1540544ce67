package server

import (
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/workload"
)

type mssFixture struct {
	k       *sim.Kernel
	link    *network.ServerLink
	catalog *Catalog
	mss     *MSS
	inbox   []network.Message
}

func newMSSFixture(t *testing.T, withTCG bool) *mssFixture {
	t.Helper()
	k := sim.NewKernel()
	link, err := network.NewServerLink(k, network.ServerLinkConfig{
		UplinkKbps:   200,
		DownlinkKbps: 2000,
		Power:        network.DefaultPowerModel(),
	}, network.NewMeter())
	if err != nil {
		t.Fatal(err)
	}
	catalog, err := NewCatalog(k, 100, 4096, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	var tcg *TCGManager
	if withTCG {
		tcg, err = NewTCGManager(4, 100, defaultTCGConfig())
		if err != nil {
			t.Fatal(err)
		}
	}
	f := &mssFixture{k: k, link: link, catalog: catalog}
	f.mss, err = NewMSS(k, link, catalog, tcg)
	if err != nil {
		t.Fatal(err)
	}
	link.SetDeliver(func(to network.NodeID, msg network.Message) bool {
		f.inbox = append(f.inbox, msg)
		return true
	})
	return f
}

func TestNewMSSValidation(t *testing.T) {
	k := sim.NewKernel()
	if _, err := NewMSS(k, nil, nil, nil); err == nil {
		t.Error("nil link/catalog accepted")
	}
}

func TestMSSServesRequest(t *testing.T) {
	f := newMSSFixture(t, false)
	f.link.SendUp(network.Message{
		Kind:     network.KindServerRequest,
		From:     1,
		Size:     network.RequestSize,
		Item:     42,
		Location: geo.Point{X: 1, Y: 2},
	})
	if err := f.k.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if len(f.inbox) != 1 {
		t.Fatalf("client got %d messages", len(f.inbox))
	}
	reply := f.inbox[0]
	if reply.Kind != network.KindServerReply {
		t.Errorf("kind = %v", reply.Kind)
	}
	if reply.Size != network.HeaderSize+4096 {
		t.Errorf("reply size = %d", reply.Size)
	}
	if reply.To != 1 || reply.Item != 42 || reply.TTL != InfiniteTTL || reply.Refresh || reply.Extra != nil {
		t.Errorf("reply = %+v", reply)
	}
	reqs, _, _, _ := f.mss.Stats()
	if reqs != 1 {
		t.Errorf("requests = %d", reqs)
	}
}

func TestMSSValidateApprovesUnchanged(t *testing.T) {
	f := newMSSFixture(t, false)
	f.k.Schedule(10*time.Second, func() {
		f.link.SendUp(network.Message{
			Kind:        network.KindValidate,
			From:        1,
			Size:        network.ValidateSize,
			Item:        5,
			RetrievedAt: 5 * time.Second,
		})
	})
	if err := f.k.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	if len(f.inbox) != 1 {
		t.Fatalf("client got %d messages", len(f.inbox))
	}
	if f.inbox[0].Kind != network.KindValidateOK {
		t.Errorf("kind = %v, want validate-ok", f.inbox[0].Kind)
	}
	if f.inbox[0].Size != network.ControlSize {
		t.Errorf("validate-ok size = %d, want control size", f.inbox[0].Size)
	}
}

func TestMSSValidateRefreshesUpdated(t *testing.T) {
	f := newMSSFixture(t, false)
	f.k.Schedule(8*time.Second, func() { f.catalog.Update(5) })
	f.k.Schedule(10*time.Second, func() {
		f.link.SendUp(network.Message{
			Kind:        network.KindValidate,
			From:        1,
			Size:        network.ValidateSize,
			Item:        5,
			RetrievedAt: 5 * time.Second,
		})
	})
	if err := f.k.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	if len(f.inbox) != 1 {
		t.Fatalf("client got %d messages", len(f.inbox))
	}
	reply := f.inbox[0]
	if reply.Kind != network.KindServerReply {
		t.Fatalf("kind = %v, want full reply", reply.Kind)
	}
	if reply.Item != 5 || !reply.Refresh {
		t.Errorf("reply = %+v, want a Refresh of item 5", reply)
	}
	_, validations, refreshes, _ := f.mss.Stats()
	if validations != 1 || refreshes != 1 {
		t.Errorf("validations=%d refreshes=%d", validations, refreshes)
	}
}

func TestMSSPiggybacksTCGChanges(t *testing.T) {
	f := newMSSFixture(t, true)
	// Drive clients 0 and 1 into a TCG through request traffic: same item
	// set, adjacent locations.
	send := func(from network.NodeID, item int, x float64) {
		f.link.SendUp(network.Message{
			Kind:     network.KindServerRequest,
			From:     from,
			Size:     network.RequestSize,
			Item:     workload.ItemID(item),
			Location: geo.Point{X: x, Y: 0},
		})
	}
	for rep := 0; rep < 5; rep++ {
		for d := 0; d < 5; d++ {
			send(0, d, 0)
			send(1, d, 30)
		}
	}
	if err := f.k.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	if g := f.mss.TCG().TCG(0); len(g) != 1 || g[0] != 1 {
		t.Fatalf("TCG(0) = %v, want [1]", g)
	}
	// Some reply must have carried the join for each client.
	joins := map[network.NodeID]bool{}
	for _, msg := range f.inbox {
		if msg.Kind != network.KindServerReply {
			continue
		}
		changes, ok := msg.Extra.(*Changes)
		if !ok {
			continue
		}
		for _, ch := range changes.List {
			if ch.Joined {
				joins[msg.To] = true
			}
		}
	}
	if !joins[0] || !joins[1] {
		t.Errorf("join notifications delivered = %v, want both clients", joins)
	}
}

func TestMSSLocationUpdateRepliesOnlyWithChanges(t *testing.T) {
	f := newMSSFixture(t, true)
	f.link.SendUp(network.Message{
		Kind:     network.KindLocationUpdate,
		From:     0,
		Size:     network.ControlSize,
		Location: geo.Point{X: 5, Y: 5},
	})
	if err := f.k.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if len(f.inbox) != 0 {
		t.Errorf("no-change location update produced %d replies", len(f.inbox))
	}
	_, _, _, locs := f.mss.Stats()
	if locs != 1 {
		t.Errorf("locUpdates = %d", locs)
	}
}

func TestMSSIgnoresMalformedPayloads(t *testing.T) {
	f := newMSSFixture(t, true)
	// Extra content of the wrong type is no peer-access sample: the
	// request is served, and only its own item counts as an access.
	f.link.SendUp(network.Message{Kind: network.KindServerRequest, From: 0, Size: 10, Item: 3, Extra: "bogus"})
	f.link.SendUp(network.Message{Kind: network.KindLocationUpdate, From: 0, Size: 10, Extra: 7})
	// Kinds the MSS does not serve are dropped.
	f.link.SendUp(network.Message{Kind: network.KindBeacon, From: 0, Size: 10})
	f.link.SendUp(network.Message{Kind: network.KindData, From: 0, Size: 10, Item: 4})
	if err := f.k.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if len(f.inbox) != 1 || f.inbox[0].Kind != network.KindServerReply || f.inbox[0].Item != 3 {
		t.Errorf("malformed traffic produced replies %+v, want one reply for item 3", f.inbox)
	}
	f.mss.TCG().RecordAccess(1, 3)
	if got := f.mss.TCG().Similarity(0, 1); got != 1 {
		t.Errorf("similarity = %v, want 1 (client 0 accessed only item 3)", got)
	}
}

func TestMSSRecordsDemandFromRequests(t *testing.T) {
	f := newMSSFixture(t, false)
	for i := 0; i < 3; i++ {
		f.link.SendUp(network.Message{
			Kind: network.KindServerRequest,
			From: 1,
			Size: network.RequestSize,
			Item: 42,
		})
	}
	if err := f.k.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if got := f.catalog.Demand(42); got != 3 {
		t.Errorf("demand = %d, want 3", got)
	}
}

func TestMSSValidateRecordsAccessForTCG(t *testing.T) {
	f := newMSSFixture(t, true)
	f.link.SendUp(network.Message{
		Kind:     network.KindValidate,
		From:     0,
		Size:     network.ValidateSize,
		Item:     5,
		Location: geo.Point{X: 1, Y: 1},
	})
	if err := f.k.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	// The validation contributed to client 0's access vector: the norm is
	// non-zero, observable via self-similarity against a twin pattern.
	f.mss.TCG().RecordAccess(1, 5)
	if got := f.mss.TCG().Similarity(0, 1); got != 1 {
		t.Errorf("similarity = %v, want 1 (both accessed only item 5)", got)
	}
}
