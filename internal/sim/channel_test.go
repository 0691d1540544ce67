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
	c := NewChannel(k, func(i int) { order = append(order, i) })
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
	c := NewChannel(k, func(struct{}) { finish = append(finish, k.Now()) })
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
	c := NewChannel(k, func(struct{}) {})
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
	c := NewChannel(k, func(struct{}) {})
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

// TestChannelRingWraps fills the waiting ring, drains part of it and
// refills it past the end of its storage, so that waiters sit on both
// sides of the wrap and the ring grows while wrapped; service must stay in
// send order throughout.
func TestChannelRingWraps(t *testing.T) {
	k := NewKernel()
	var order []int
	c := NewChannel(k, func(i int) { order = append(order, i) })
	next := 0
	send := func(n int) {
		for ; n > 0; n-- {
			c.Send(next, time.Second)
			next++
		}
	}
	send(9) // one in service, 8 waiting: the initial ring is full
	if c.QueueLen() != 8 || len(c.waiting) != 8 {
		t.Fatalf("QueueLen = %d, ring = %d, want a full ring of 8", c.QueueLen(), len(c.waiting))
	}
	if err := k.Run(5 * time.Second); err != nil { // serve 0..4
		t.Fatal(err)
	}
	send(5) // refill past the end: the tail wraps to the front
	if c.head == 0 || len(c.waiting) != 8 {
		t.Fatalf("head = %d, ring = %d: the refill did not wrap in place", c.head, len(c.waiting))
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
	c = NewChannel(k, func(v string) {
		log = append(log, v)
		if v == "a" {
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
	c = NewChannel(k, func(i int) {
		finish = append(finish, k.Now())
		if i < 2 {
			c.Send(i+1, time.Second)
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
