// Package sim provides a deterministic discrete-event simulation kernel.
//
// It is the stand-in for the CSIM framework used by the paper: a virtual
// clock, an event heap ordered by (time, sequence) so that ties resolve
// deterministically, cancellable timers, and FCFS channels for modelling
// bandwidth-limited links. A Kernel is single-threaded: all events run on
// the goroutine that calls Run, so model code needs no locking.
//
// Scheduling allocates nothing once the heap has grown: the heap holds
// events by value, and an Event is a value handle checked against the
// slot its heap entry occupies.
package sim

import (
	"errors"
	"fmt"
	"time"
)

// ErrStopped is returned by Run when the simulation was halted by Stop
// before reaching its horizon.
var ErrStopped = errors.New("simulation stopped")

// Event is a handle to a scheduled callback. It is returned by the
// scheduling methods so callers can cancel it before it fires (e.g. a
// protocol timeout that is disarmed when the awaited reply arrives). The
// zero Event, and the handle of an event that has fired or been cancelled,
// cancel nothing.
type Event struct {
	k    *Kernel
	seq  uint64
	slot int
}

// Cancel prevents the event from firing and reports whether it was still
// pending. The event's heap entry stays until its time comes and is then
// dropped unfired, so Kernel.Pending counts it until then.
func (e Event) Cancel() bool {
	if e.k == nil || e.k.slots[e.slot] != e.seq {
		return false
	}
	e.k.slots[e.slot] = 0
	return true
}

// entry is one scheduled event in the heap. slot is the index in
// Kernel.slots that the entry owns until it leaves the heap.
type entry struct {
	at   time.Duration
	seq  uint64
	fn   func()
	slot int
}

// before orders entries by (time, sequence). Sequence numbers are unique,
// so the order is total and the firing order does not depend on the heap's
// layout.
func before(a, b *entry) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// Kernel is the simulation executive. The zero value is not usable; create
// one with NewKernel.
type Kernel struct {
	now time.Duration
	seq uint64
	// heap is a binary min-heap of entries under before.
	heap []entry
	// slots[i] holds the sequence number of the pending event whose entry
	// owns slot i, or 0 once that event is cancelled. A slot is freed when
	// its entry leaves the heap, so a handle whose event has fired, been
	// cancelled or been reaped never matches it again: sequence numbers are
	// not reused. free lists the free slots.
	slots []uint64
	free  []int
	// stopped is set by Stop and cleared when Run starts.
	stopped bool
	// processed counts events that have fired, for diagnostics.
	processed uint64
}

// NewKernel returns a kernel with the clock at zero.
func NewKernel() *Kernel {
	return &Kernel{}
}

// Now returns the current simulation time.
func (k *Kernel) Now() time.Duration { return k.now }

// Pending reports the number of scheduled (not yet fired) events, including
// cancelled events that have not been reaped from the heap.
func (k *Kernel) Pending() int { return len(k.heap) }

// Processed reports how many events have fired since the kernel was created.
func (k *Kernel) Processed() uint64 { return k.processed }

// Schedule runs fn after delay of simulated time. A negative delay is an
// error in the model; it is clamped to zero so the event fires "now" (after
// currently pending same-time events).
func (k *Kernel) Schedule(delay time.Duration, fn func()) Event {
	if delay < 0 {
		delay = 0
	}
	return k.At(k.now+delay, fn)
}

// At runs fn at absolute simulation time t. Times in the past are clamped to
// the current time.
//
//hot:one call per scheduled event; 0 allocs/op pinned by TestKernelScheduleFireAllocs
func (k *Kernel) At(t time.Duration, fn func()) Event {
	if t < k.now {
		t = k.now
	}
	k.seq++
	var slot int
	if n := len(k.free); n > 0 {
		slot = k.free[n-1]
		k.free = k.free[:n-1]
	} else {
		slot = len(k.slots)
		k.slots = append(k.slots, 0)
	}
	k.slots[slot] = k.seq
	e := entry{at: t, seq: k.seq, fn: fn, slot: slot}
	k.heap = append(k.heap, e)
	h := k.heap
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !before(&e, &h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
	return Event{k: k, seq: e.seq, slot: slot}
}

// pop removes the earliest entry from the non-empty heap, frees its slot
// and reports whether the event is live (not cancelled).
//
//hot:one call per fired or reaped event
func (k *Kernel) pop() (entry, bool) {
	h := k.heap
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = entry{} // drop the closure so the collector can reclaim it
	h = h[:n]
	k.heap = h
	if n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if r := c + 1; r < n && before(&h[r], &h[c]) {
				c = r
			}
			if !before(&h[c], &last) {
				break
			}
			h[i] = h[c]
			i = c
		}
		h[i] = last
	}
	live := k.slots[top.slot] == top.seq
	k.slots[top.slot] = 0
	k.free = append(k.free, top.slot)
	return top, live
}

// Stop halts Run after the currently executing event returns.
func (k *Kernel) Stop() { k.stopped = true }

// Run executes events in timestamp order until the horizon is reached, the
// event heap drains, or Stop is called. The clock is left at the horizon
// when the heap drains early, so successive Run calls see monotonic time.
func (k *Kernel) Run(horizon time.Duration) error {
	if horizon < k.now {
		return fmt.Errorf("sim: horizon %v before current time %v", horizon, k.now)
	}
	k.stopped = false
	for len(k.heap) > 0 {
		if k.stopped {
			return ErrStopped
		}
		if k.heap[0].at > horizon {
			break
		}
		next, live := k.pop()
		if !live {
			continue
		}
		k.now = next.at
		k.processed++
		next.fn()
	}
	if k.stopped {
		return ErrStopped
	}
	if k.now < horizon {
		k.now = horizon
	}
	return nil
}

// Step fires exactly one pending event (skipping cancelled ones) and reports
// whether an event fired. It is mainly useful in tests.
func (k *Kernel) Step() bool {
	for len(k.heap) > 0 {
		next, live := k.pop()
		if !live {
			continue
		}
		k.now = next.at
		k.processed++
		next.fn()
		return true
	}
	return false
}
