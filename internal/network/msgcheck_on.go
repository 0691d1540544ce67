//go:build msgcheck

package network

// msgCheck is on: the medium and the server link panic when a receiver
// changes a delivered message, and poison its slot once delivery ends.
const msgCheck = true
