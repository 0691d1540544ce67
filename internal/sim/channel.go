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
// scheduling that waiter's completion, and then hands the finished value
// to the completion function bound at construction. Anything that function
// schedules therefore fires after the next waiter's completion at equal
// times.
type Channel[T any] struct {
	k    *Kernel
	done func(T)
	// finished is c.finish, bound once so that scheduling a completion
	// allocates nothing.
	finished func()
	busy     bool
	cur      T // the value in service while busy
	// waiting is a ring buffer of n waiters starting at head. It grows by
	// doubling when full and otherwise reuses its storage.
	waiting []waiter[T]
	head, n int
	// busyTime integrates the time the channel was busy up to lastChange.
	busyTime   time.Duration
	lastChange time.Duration
}

// waiter is a value queued for the channel with its hold time.
type waiter[T any] struct {
	v    T
	hold time.Duration
}

// NewChannel creates an idle channel served by k. done receives each value
// when its hold time ends.
func NewChannel[T any](k *Kernel, done func(T)) *Channel[T] {
	c := &Channel[T]{k: k, done: done}
	c.finished = c.finish
	return c
}

// Send occupies the channel with v for hold of simulated time, after every
// value sent before it. If the channel is idle, v's completion is
// scheduled at once.
func (c *Channel[T]) Send(v T, hold time.Duration) {
	if !c.busy {
		c.account()
		c.busy = true
		c.start(v, hold)
		return
	}
	if c.n == len(c.waiting) {
		ring := make([]waiter[T], max(8, 2*c.n))
		copied := copy(ring, c.waiting[c.head:])
		copy(ring[copied:], c.waiting[:c.head])
		c.waiting, c.head = ring, 0
	}
	i := c.head + c.n
	if i >= len(c.waiting) {
		i -= len(c.waiting)
	}
	c.waiting[i] = waiter[T]{v: v, hold: hold}
	c.n++
}

// start puts v in service and schedules its completion.
func (c *Channel[T]) start(v T, hold time.Duration) {
	c.cur = v
	c.k.Schedule(hold, c.finished)
}

// finish ends the service of the current value: it starts the head waiter,
// or idles the channel, and then delivers the finished value.
func (c *Channel[T]) finish() {
	v := c.cur
	c.account()
	if c.n > 0 {
		w := c.waiting[c.head]
		c.waiting[c.head] = waiter[T]{} // let the collector reclaim what it references
		c.head++
		if c.head == len(c.waiting) {
			c.head = 0
		}
		c.n--
		c.start(w.v, w.hold)
	} else {
		var zero T // as above: an idle channel holds no value
		c.busy, c.cur = false, zero
	}
	c.done(v)
}

// account folds busy time up to now into the utilisation integral.
func (c *Channel[T]) account() {
	now := c.k.Now()
	if c.busy {
		c.busyTime += now - c.lastChange
	}
	c.lastChange = now
}

// QueueLen reports the number of values waiting behind the one in service.
func (c *Channel[T]) QueueLen() int { return c.n }

// Utilization reports the fraction of elapsed simulation time the channel
// was busy. Zero elapsed time yields zero.
func (c *Channel[T]) Utilization() float64 {
	c.account()
	if c.k.Now() == 0 {
		return 0
	}
	return float64(c.busyTime) / float64(c.k.Now())
}
