package network

import (
	"fmt"
	"math"
	"reflect"

	"repro/internal/geo"
)

// The msgcheck build tag (go test -tags msgcheck) checks the delivery
// contract of Peer.Receive and the server link's handlers: a receiver
// must not write the message it is handed, nor read it after returning.
// The checks below run only under the tag.

// checkUnchanged panics when msg, a delivered message, differs from was,
// the copy taken before the receiver was handed it. The receiver is a
// peer's ID, or -1 for the MSS. Checking allocates nothing, so the
// allocation pins hold under the tag too.
func checkUnchanged(msg, was *Message, receiver NodeID) {
	if sameMessage(msg, was) {
		return
	}
	who := "the MSS"
	if receiver >= 0 {
		who = fmt.Sprintf("host %d", receiver)
	}
	panic(fmt.Sprintf("network: %s changed a delivered %v message to %+v, from %+v", who, was.Kind, *msg, *was))
}

// sameMessage reports whether a and b are equal field by field: floats
// bit for bit, and Extra as the same content.
func sameMessage(a, b *Message) bool {
	x, y := *a, *b
	x.Location, y.Location = geo.Point{}, geo.Point{}
	x.Extra, y.Extra = nil, nil
	return x == y &&
		math.Float64bits(a.Location.X) == math.Float64bits(b.Location.X) &&
		math.Float64bits(a.Location.Y) == math.Float64bits(b.Location.Y) &&
		sameExtra(a.Extra, b.Extra)
}

// sameExtra reports whether two Extra values hold the same content: equal
// values of a comparable type, or slices over the same array.
func sameExtra(a, b any) bool {
	t := reflect.TypeOf(a)
	if t != reflect.TypeOf(b) {
		return false
	}
	if t == nil || t.Comparable() {
		return a == b
	}
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	if t.Kind() == reflect.Slice {
		return va.Pointer() == vb.Pointer() && va.Len() == vb.Len()
	}
	return reflect.DeepEqual(a, b)
}

// poisonExtra marks the Extra of a poisoned message.
type poisonExtra struct{}

// poison fills a delivered message's slot with values no protocol
// message carries, so a receiver that kept the pointer reads garbage
// instead of a plausible message.
func poison(msg *Message) {
	const bad = -0x5EED
	*msg = Message{
		Kind:        0xEE,
		Refresh:     true,
		Hops:        bad,
		From:        bad,
		To:          bad,
		Size:        bad,
		Item:        bad,
		Seq:         0xDEADBEEFDEADBEEF,
		Origin:      bad,
		RetrievedAt: math.MinInt64,
		TTL:         math.MinInt64,
		Location:    geo.Point{X: math.NaN(), Y: math.NaN()},
		Extra:       poisonExtra{},
	}
}
