//go:build msgcheck

package network

import (
	"strings"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/sim"
)

// itemWriter is a seeded defect: a peer that writes the message it is
// handed, which the delivery contract forbids.
type itemWriter struct{ benchPeer }

func (p *itemWriter) Receive(msg *Message) { msg.Item = 99 }

// keeper is a peer that keeps the pointer it is handed, which the
// delivery contract forbids too: it may read it only until it returns.
type keeper struct {
	benchPeer
	kept *Message
}

func (p *keeper) Receive(msg *Message) { p.kept = msg }

// mustPanic runs the kernel k until it drains and requires a msgcheck
// panic naming receiver.
func mustPanic(t *testing.T, k *sim.Kernel, receiver string) {
	t.Helper()
	defer func() {
		r := recover()
		s, ok := r.(string)
		if !ok || !strings.Contains(s, receiver+" changed a delivered") {
			t.Fatalf("recovered %v, want a msgcheck panic naming %s", r, receiver)
		}
	}()
	for k.Step() {
	}
}

// TestMsgcheckCatchesWritingReceiver delivers to receivers that write
// msg.Item, over each delivery path; under msgcheck every one must panic.
func TestMsgcheckCatchesWritingReceiver(t *testing.T) {
	for _, broadcast := range []bool{false, true} {
		k := sim.NewKernel()
		m, _ := newTestMedium(t, k)
		addPeer(t, m, 0, 0, 0)
		if err := m.Register(&itemWriter{benchPeer{id: 1, pos: geo.Point{X: 10}}}); err != nil {
			t.Fatal(err)
		}
		msg := Message{Kind: KindRequest, From: 0, To: 1, Size: RequestSize, Item: 7}
		if broadcast {
			m.Broadcast(msg)
		} else {
			m.Send(msg)
		}
		mustPanic(t, k, "host 1")
	}

	k := sim.NewKernel()
	link, err := NewServerLink(k, ServerLinkConfig{UplinkKbps: 200, DownlinkKbps: 2000}, nil)
	if err != nil {
		t.Fatal(err)
	}
	link.SetHandler(func(msg *Message) { msg.Item = 99 })
	link.SendUp(Message{Kind: KindServerRequest, From: 3, Size: ControlSize, Item: 7})
	mustPanic(t, k, "the MSS")

	link.SetDeliver(func(_ NodeID, msg *Message) bool { msg.Item = 99; return true })
	link.SendDown(Message{Kind: KindServerReply, To: 3, Size: 1000, Item: 7})
	mustPanic(t, k, "host 3")
}

// TestMsgcheckPoisonsDeliveredSlot has a peer keep the pointer it was
// handed: once delivery ends, the slot holds the poison pattern.
func TestMsgcheckPoisonsDeliveredSlot(t *testing.T) {
	k := sim.NewKernel()
	m, _ := newTestMedium(t, k)
	addPeer(t, m, 0, 0, 0)
	p := &keeper{benchPeer: benchPeer{id: 1, pos: geo.Point{X: 10}}}
	if err := m.Register(p); err != nil {
		t.Fatal(err)
	}
	m.Send(Message{Kind: KindData, From: 0, To: 1, Size: RequestSize, Item: 7})
	if err := k.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if p.kept == nil {
		t.Fatal("the message was not delivered")
	}
	var want Message
	poison(&want)
	if !sameMessage(p.kept, &want) {
		t.Errorf("the kept slot reads %+v after delivery, want the poison pattern", *p.kept)
	}
}
