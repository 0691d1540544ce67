//go:build !msgcheck

package sim

// clearDelivered makes a Channel zero a value's ring slot once its
// completion function returns. The msgcheck build tag turns it off, so
// that a completion function may leave a poison pattern in the slot.
const clearDelivered = true
