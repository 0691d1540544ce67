//go:build msgcheck

package sim

// clearDelivered is off under the msgcheck build tag: a Channel leaves a
// delivered value's ring slot as its completion function left it, so the
// poison pattern the network layer writes there stays until the slot is
// reused.
const clearDelivered = false
