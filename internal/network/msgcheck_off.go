//go:build !msgcheck

package network

// msgCheck is off: the medium and the server link trust receivers to keep
// the delivery contract (see Peer) and check nothing.
const msgCheck = false
