package sim

import (
	"testing"
	"time"
)

// The TestResource* tests keep the names they had when the kernel's FCFS
// server was a multi-unit Resource; they now drive its successor, Channel.

func TestResourceFCFSOrder(t *testing.T) {
	k := NewKernel()
	var order []int
	c := NewChannel(k, func(i *int) { order = append(order, *i) })
	for i := 0; i < 5; i++ {
		// All arrive at t=0 in index order; each holds 1s.
		c.Send(i, time.Second)
	}
	if err := k.Run(time.Minute); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(order) != 5 {
		t.Fatalf("service order = %v", order)
	}
	for i := 0; i < 5; i++ {
		if order[i] != i {
			t.Fatalf("service order = %v", order)
		}
	}
}

func TestResourceQueueingDelay(t *testing.T) {
	k := NewKernel()
	var finish []time.Duration
	c := NewChannel(k, func(*struct{}) { finish = append(finish, k.Now()) })
	for i := 0; i < 3; i++ {
		c.Send(struct{}{}, 2*time.Second)
	}
	if got := c.QueueLen(); got != 2 {
		t.Errorf("QueueLen = %d behind the value in service, want 2", got)
	}
	if err := k.Run(time.Minute); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []time.Duration{2 * time.Second, 4 * time.Second, 6 * time.Second}
	if len(finish) != len(want) {
		t.Fatalf("finish = %v, want %v", finish, want)
	}
	for i, w := range want {
		if finish[i] != w {
			t.Errorf("finish[%d] = %v, want %v", i, finish[i], w)
		}
	}
}

func TestResourceStats(t *testing.T) {
	k := NewKernel()
	c := NewChannel(k, func(*struct{}) {})
	for i := 0; i < 3; i++ {
		c.Send(struct{}{}, time.Second)
	}
	if err := k.Run(6 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Busy 3s of 6s elapsed.
	if u := c.Utilization(); u < 0.49 || u > 0.51 {
		t.Errorf("Utilization = %v, want ~0.5", u)
	}
}

func TestResourceUtilizationIdle(t *testing.T) {
	k := NewKernel()
	c := NewChannel(k, func(*struct{}) {})
	if u := c.Utilization(); u != 0 {
		t.Errorf("utilization at time zero = %v", u)
	}
	if err := k.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if u := c.Utilization(); u != 0 {
		t.Errorf("idle utilization = %v", u)
	}
}

// TestChannelRingWraps fills the ring, drains part of it and refills it
// past the end of its storage, so that values sit on both sides of the
// wrap and the ring grows while wrapped; service must stay in send order
// throughout.
func TestChannelRingWraps(t *testing.T) {
	k := NewKernel()
	var order []int
	c := NewChannel(k, func(i *int) { order = append(order, *i) })
	next := 0
	send := func(n int) {
		for ; n > 0; n-- {
			c.Send(next, time.Second)
			next++
		}
	}
	send(7) // one in service, 6 waiting, one slot spare: the initial ring is full
	if c.QueueLen() != 6 || len(c.ring) != 8 {
		t.Fatalf("QueueLen = %d, ring = %d, want 6 waiting in a ring of 8", c.QueueLen(), len(c.ring))
	}
	if err := k.Run(5 * time.Second); err != nil { // serve 0..4
		t.Fatal(err)
	}
	send(5) // refill past the end: the tail wraps to the front
	if c.head == 0 || len(c.ring) != 8 {
		t.Fatalf("head = %d, ring = %d: the refill did not wrap in place", c.head, len(c.ring))
	}
	send(4) // a full, wrapped ring grows
	if err := k.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	if len(order) != next {
		t.Fatalf("served %d of %d values: %v", len(order), next, order)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("service order = %v", order)
		}
	}
	if c.QueueLen() != 0 {
		t.Errorf("QueueLen = %d after draining", c.QueueLen())
	}
}

// TestChannelGrantsNextBeforeDone pins the event order of a completion: the
// next waiter's completion is scheduled before the finished value is
// delivered, so an event the delivery schedules at the same time fires
// after that waiter's completion.
func TestChannelGrantsNextBeforeDone(t *testing.T) {
	k := NewKernel()
	var log []string
	var c *Channel[string]
	c = NewChannel(k, func(v *string) {
		log = append(log, *v)
		if *v == "a" {
			k.Schedule(time.Second, func() { log = append(log, "after a") })
		}
	})
	c.Send("a", time.Second)
	c.Send("b", time.Second)
	if err := k.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "b", "after a"}
	if len(log) != len(want) {
		t.Fatalf("log = %v, want %v", log, want)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("log = %v, want %v", log, want)
		}
	}
}

// TestChannelSendFromDone sends from inside the completion function: an
// idle channel starts the new value at once.
func TestChannelSendFromDone(t *testing.T) {
	k := NewKernel()
	var finish []time.Duration
	var c *Channel[int]
	c = NewChannel(k, func(i *int) {
		finish = append(finish, k.Now())
		if *i < 2 {
			c.Send(*i+1, time.Second)
		}
	})
	c.Send(0, time.Second)
	if err := k.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{time.Second, 2 * time.Second, 3 * time.Second}
	if len(finish) != len(want) {
		t.Fatalf("finish = %v, want %v", finish, want)
	}
	for i, w := range want {
		if finish[i] != w {
			t.Errorf("finish[%d] = %v, want %v", i, finish[i], w)
		}
	}
	if u := c.Utilization(); u != 0.05 {
		t.Errorf("Utilization = %v, want 3s busy of 60s", u)
	}
}

// TestChannelDoneSendsOwnChannel sends from inside the completion function
// at every fill level up to well past the ring's first size, with the
// channel left idle (one value sent) or busy (more sent) by the finishing
// value. The value being delivered must read the same after the sends,
// and every value must complete once, in send order.
func TestChannelDoneSendsOwnChannel(t *testing.T) {
	for fill := 1; fill <= 20; fill++ {
		for extra := 0; extra <= 20; extra++ {
			k := NewKernel()
			var order []int
			var c *Channel[int]
			c = NewChannel(k, func(v *int) {
				got := *v
				order = append(order, got)
				if got != 0 {
					return
				}
				for i := 0; i < extra; i++ {
					c.Send(fill+i, time.Second)
				}
				if *v != got {
					t.Fatalf("fill %d, %d sends: the delivered value changed from %d to %d", fill, extra, got, *v)
				}
			})
			for i := 0; i < fill; i++ {
				c.Send(i, time.Second)
			}
			if err := k.Run(time.Hour); err != nil {
				t.Fatal(err)
			}
			if len(order) != fill+extra {
				t.Fatalf("fill %d, %d sends: served %v", fill, extra, order)
			}
			for i, v := range order {
				if v != i {
					t.Fatalf("fill %d, %d sends: service order %v", fill, extra, order)
				}
			}
		}
	}
}

// TestChannelDoneGrowsRing grows the ring from inside the completion
// function and keeps reading the delivered value through its pointer: the
// old array holds it until the function returns.
func TestChannelDoneGrowsRing(t *testing.T) {
	type big struct {
		id  int
		pad [12]int
	}
	k := NewKernel()
	var c *Channel[big]
	var served []int
	grew := false
	c = NewChannel(k, func(v *big) {
		served = append(served, v.id)
		if v.id != 0 {
			return
		}
		before := len(c.ring)
		for i := 1; i <= 40; i++ {
			c.Send(big{id: 100 + i}, time.Second)
			if v.id != 0 || v.pad[11] != 7 {
				t.Fatalf("after %d sends the delivered value reads %+v", i, *v)
			}
		}
		grew = len(c.ring) > before
	})
	c.Send(big{id: 0, pad: [12]int{11: 7}}, time.Second)
	c.Send(big{id: 1}, time.Second)
	if err := k.Run(time.Hour); err != nil {
		t.Fatal(err)
	}
	if !grew {
		t.Fatal("40 sends from the completion function did not grow the ring")
	}
	if len(served) != 42 || served[0] != 0 || served[1] != 1 || served[2] != 101 || served[41] != 140 {
		t.Fatalf("served %v", served)
	}
}

// TestChannelMatchesFCFSModel drives a channel with a random trace of
// sends and hold times and compares it with a reference FCFS server: each
// value starts at the later of its send and the previous value's end.
// Completion order and times, QueueLen after every send and Utilization
// at every send and at the end must all agree. Sends are scheduled before
// the run, so at equal times a send fires before a completion.
func TestChannelMatchesFCFSModel(t *testing.T) {
	rng := NewRNG(3).Stream("channel-model")
	for trial := 0; trial < 200; trial++ {
		k := NewKernel()
		n := 1 + rng.Intn(60)
		sendAt := make([]time.Duration, n)
		hold := make([]time.Duration, n)
		at := time.Duration(0)
		for i := range sendAt {
			if rng.Intn(3) > 0 { // a third of the sends share a time
				at += time.Duration(rng.Intn(50))
			}
			sendAt[i] = at
			hold[i] = time.Duration(1 + rng.Intn(30))
		}
		start := make([]time.Duration, n)
		end := make([]time.Duration, n)
		for i := range start {
			start[i] = sendAt[i]
			if i > 0 {
				start[i] = max(start[i], end[i-1])
			}
			end[i] = start[i] + hold[i]
		}
		// busyUntil is the model's busy time in [0, t].
		busyUntil := func(t time.Duration) time.Duration {
			var busy time.Duration
			for i := range start {
				busy += max(min(end[i], t)-start[i], 0)
			}
			return busy
		}
		var served []int
		var servedAt []time.Duration
		c := NewChannel(k, func(v *int) {
			served = append(served, *v)
			servedAt = append(servedAt, k.Now())
		})
		for i := range sendAt {
			k.At(sendAt[i], func() {
				c.Send(i, hold[i])
				inSystem := 0
				for j := 0; j <= i; j++ {
					if end[j] >= sendAt[i] {
						inSystem++
					}
				}
				if got := c.QueueLen(); got != inSystem-1 {
					t.Fatalf("trial %d: QueueLen after send %d at %v = %d, model %d", trial, i, sendAt[i], got, inSystem-1)
				}
				want := 0.0
				if now := k.Now(); now > 0 {
					want = float64(busyUntil(now)) / float64(now)
				}
				if got := c.Utilization(); got != want {
					t.Fatalf("trial %d: Utilization at send %d = %v, model %v", trial, i, got, want)
				}
			})
		}
		horizon := end[n-1] + 10
		if err := k.Run(horizon); err != nil {
			t.Fatal(err)
		}
		if len(served) != n {
			t.Fatalf("trial %d: served %d of %d", trial, len(served), n)
		}
		for i := range served {
			if served[i] != i || servedAt[i] != end[i] {
				t.Fatalf("trial %d: completion %d is value %d at %v, model value %d at %v", trial, i, served[i], servedAt[i], i, end[i])
			}
		}
		if got, want := c.Utilization(), float64(busyUntil(horizon))/float64(horizon); got != want {
			t.Fatalf("trial %d: final Utilization = %v, model %v", trial, got, want)
		}
		if c.QueueLen() != 0 || !c.Idle() {
			t.Fatalf("trial %d: QueueLen %d, idle %v after draining", trial, c.QueueLen(), c.Idle())
		}
	}
}

// TestChannelIdle reports a channel idle only when it holds no value: not
// while a value waits or is in service, and not while the completion
// function runs.
func TestChannelIdle(t *testing.T) {
	k := NewKernel()
	var c *Channel[int]
	var idleInDone []bool
	c = NewChannel(k, func(*int) { idleInDone = append(idleInDone, c.Idle()) })
	if !c.Idle() {
		t.Fatal("a new channel is not idle")
	}
	c.Send(1, time.Second)
	c.Send(2, time.Second)
	if c.Idle() {
		t.Fatal("a channel with a value in service reads idle")
	}
	if err := k.Run(time.Hour); err != nil {
		t.Fatal(err)
	}
	if !c.Idle() || len(idleInDone) != 2 || idleInDone[0] || idleInDone[1] {
		t.Fatalf("idle %v after draining, %v inside the completion function", c.Idle(), idleInDone)
	}
}
