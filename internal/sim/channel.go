package sim

import "time"

// Channel is a capacity-one FCFS server for values of type T, the building
// block for bandwidth-limited links: sending a value models starting a
// transmission, and the channel stays busy with it for its hold time.
// Values sent while the channel is busy wait in arrival order, which is
// exactly the first-come-first-serve policy the paper prescribes for the
// MSS channel and for each host's half-duplex NIC.
//
// When a value's hold time ends, the channel first starts the next waiter,
// scheduling that waiter's completion, and then hands the completion
// function bound at construction a pointer to the finished value. Anything
// that function schedules therefore fires after the next waiter's
// completion at equal times.
//
// The pointer addresses the value's slot in the channel's ring, which is
// left alone until the completion function returns and then cleared: the
// ring always keeps one slot spare, so a Send made from inside the
// completion function never writes the slot being delivered, and a ring
// that grows meanwhile leaves the old array, and so the slot, intact.
type Channel[T any] struct {
	k    *Kernel
	done func(*T)
	// finished is c.finish, bound once so that scheduling a completion
	// allocates nothing.
	finished func()
	// ring is a ring buffer of n values starting at head: the value in
	// service, while n > 0, and the values waiting behind it. It grows by
	// doubling before it would fill, and otherwise reuses its storage.
	ring    []slot[T]
	head, n int
	// delivering is set while the completion function runs.
	delivering bool
	// busyTime integrates the time the channel was busy up to lastChange.
	busyTime   time.Duration
	lastChange time.Duration
}

// slot is a value sent to the channel with its hold time.
type slot[T any] struct {
	v    T
	hold time.Duration
}

// NewChannel creates an idle channel served by k. done receives a pointer
// to each value when its hold time ends; the pointer is valid until done
// returns.
func NewChannel[T any](k *Kernel, done func(*T)) *Channel[T] {
	c := &Channel[T]{k: k, done: done}
	c.finished = c.finish
	return c
}

// Send occupies the channel with v for hold of simulated time, after every
// value sent before it. If the channel is idle, v's completion is
// scheduled at once.
func (c *Channel[T]) Send(v T, hold time.Duration) {
	if c.n+1 >= len(c.ring) {
		// Copy the n values, which may wrap past the end, to the front.
		ring := make([]slot[T], max(8, 2*len(c.ring)))
		copied := copy(ring, c.ring[c.head:min(c.head+c.n, len(c.ring))])
		copy(ring[copied:c.n], c.ring)
		c.ring, c.head = ring, 0
	}
	i := c.head + c.n
	if i >= len(c.ring) {
		i -= len(c.ring)
	}
	s := &c.ring[i]
	s.v, s.hold = v, hold
	if c.n == 0 {
		c.account()
		c.k.Schedule(hold, c.finished)
	}
	c.n++
}

// finish ends the service of the value at the head of the ring: it starts
// the next waiter, or idles the channel, then delivers the finished value
// in place and clears its slot.
func (c *Channel[T]) finish() {
	c.account()
	s := &c.ring[c.head]
	c.head++
	if c.head == len(c.ring) {
		c.head = 0
	}
	c.n--
	if c.n > 0 {
		c.k.Schedule(c.ring[c.head].hold, c.finished)
	}
	c.delivering = true
	c.done(&s.v)
	c.delivering = false
	if clearDelivered {
		*s = slot[T]{} // let the collector reclaim what the value references
	}
}

// account folds busy time up to now into the utilisation integral.
func (c *Channel[T]) account() {
	now := c.k.Now()
	if c.n > 0 {
		c.busyTime += now - c.lastChange
	}
	c.lastChange = now
}

// QueueLen reports the number of values waiting behind the one in service.
func (c *Channel[T]) QueueLen() int { return max(c.n-1, 0) }

// Idle reports whether the channel holds no value: none waiting, none in
// service and none being delivered.
func (c *Channel[T]) Idle() bool { return c.n == 0 && !c.delivering }

// Utilization reports the fraction of elapsed simulation time the channel
// was busy. Zero elapsed time yields zero.
func (c *Channel[T]) Utilization() float64 {
	c.account()
	if c.k.Now() == 0 {
		return 0
	}
	return float64(c.busyTime) / float64(c.k.Now())
}
