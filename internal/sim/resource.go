package sim

import "time"

// Resource is a FCFS server with fixed capacity, the building block for
// bandwidth-limited channels: acquiring a unit of the resource models
// starting a transmission, and holding it for size/bandwidth models the
// transmission time. Waiters queue in arrival order, which is exactly the
// first-come-first-serve policy the paper prescribes for the MSS channel.
type Resource struct {
	k        *Kernel
	capacity int
	inUse    int
	queue    []func()
	// stats
	totalAcquires uint64
	totalQueued   uint64
	busyTime      time.Duration
	lastChange    time.Duration
}

// NewResource creates a resource served by the kernel with the given
// capacity. Capacity below one is treated as one.
func NewResource(k *Kernel, capacity int) *Resource {
	if capacity < 1 {
		capacity = 1
	}
	return &Resource{k: k, capacity: capacity}
}

// Acquire requests one unit of the resource and invokes fn once granted.
// If a unit is free, fn runs synchronously; otherwise the request queues
// FCFS behind earlier waiters.
func (r *Resource) Acquire(fn func()) {
	r.totalAcquires++
	if r.inUse < r.capacity {
		r.account()
		r.inUse++
		fn()
		return
	}
	r.totalQueued++
	r.queue = append(r.queue, fn)
}

// Release returns one unit. If waiters are queued, the head waiter is
// granted the unit immediately (synchronously).
func (r *Resource) Release() {
	r.account()
	if len(r.queue) > 0 {
		next := r.queue[0]
		r.queue = r.queue[1:]
		next()
		return
	}
	if r.inUse > 0 {
		r.inUse--
	}
}

// Use acquires the resource, holds it for hold of simulated time, releases
// it, and then invokes done (which may be nil). This is the one-shot
// "transmit a message" pattern.
func (r *Resource) Use(hold time.Duration, done func()) {
	r.Acquire(func() {
		r.k.Schedule(hold, func() {
			r.Release()
			if done != nil {
				done()
			}
		})
	})
}

// account folds busy time up to now into the utilisation integral.
func (r *Resource) account() {
	now := r.k.Now()
	if r.inUse > 0 {
		r.busyTime += time.Duration(int64(now-r.lastChange) * int64(min(r.inUse, r.capacity)) / int64(r.capacity))
	}
	r.lastChange = now
}

// QueueLen reports the number of waiters currently queued.
func (r *Resource) QueueLen() int { return len(r.queue) }

// InUse reports the number of units currently held.
func (r *Resource) InUse() int { return r.inUse }

// Acquires reports the total number of Acquire calls.
func (r *Resource) Acquires() uint64 { return r.totalAcquires }

// Queued reports how many Acquire calls had to wait.
func (r *Resource) Queued() uint64 { return r.totalQueued }

// Utilization reports the fraction of elapsed simulation time the resource
// was busy, weighted by the fraction of capacity in use. Zero elapsed time
// yields zero.
func (r *Resource) Utilization() float64 {
	r.account()
	if r.k.Now() == 0 {
		return 0
	}
	return float64(r.busyTime) / float64(r.k.Now())
}
