// Package cache implements the client-side data cache used by all three
// schemes: an LRU-ordered store of fixed item capacity with TTL-based
// validity (the paper's lazy consistency strategy) and the inspection hooks
// the GroCoca cooperative replacement protocol needs: peeking at the
// ReplaceCandidate least valuable entries and per-entry SingletTTL counters.
package cache

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/workload"
)

// Entry is one cached data item together with the consistency and
// replacement metadata the protocols track.
type Entry struct {
	// ID is the catalog identifier.
	ID workload.ItemID
	// Size is the item size in bytes.
	Size int
	// RetrievedAt is the simulation time the copy was obtained (t_r).
	RetrievedAt time.Duration
	// TTL is the validity lifetime assigned by the MSS at retrieval.
	TTL time.Duration
	// LastAccess is the LRU timestamp; cooperative admission lets TCG
	// providers refresh it remotely.
	LastAccess time.Duration
	// SingletTTL counts down replacement rounds in which this entry
	// survived only because it had no replica in the TCG; it is reset to
	// ReplaceDelay on access.
	SingletTTL int
	// Accesses counts Get/Touch hits on this entry — spillover's "proven
	// useful" filter donates only items that were hit more than once.
	Accesses int
	// Donated marks entries received via cache spillover; donations may
	// only displace other donations and lose the mark when the owner
	// itself accesses the item.
	Donated bool

	// prev and next link the entry's slot into the recency list (toward
	// the most and the least recently used end); -1 ends the list. A free
	// slot chains the free list through next.
	prev, next int32
}

// Valid reports whether the copy's TTL has not expired at time now.
func (e *Entry) Valid(now time.Duration) bool {
	return now <= e.RetrievedAt+e.TTL
}

// The errors Add reports; both are programming errors in the caller.
var (
	ErrFull      = errors.New("cache: add into full cache")
	ErrDuplicate = errors.New("cache: duplicate add")
)

// none ends the recency list and the free list.
const none int32 = -1

// LRU is a fixed-capacity least-recently-used cache keyed by item ID. It
// never evicts on its own: callers make room explicitly, which is where the
// schemes' replacement policies plug in.
//
// Entries live in one slice of slots, linked into the recency list by
// index, and a pointer-free map resolves an ID to its slot, so neither an
// admission nor an eviction allocates once the slice has grown to
// capacity. An *Entry the cache returns points into that slice: it stays
// valid until the next Add, which may reuse a removed entry's slot or
// move the slice while it grows. So a removed entry can still be read
// until then, which is how an evicted victim is offered for spillover.
type LRU struct {
	capacity int
	index    map[workload.ItemID]int32
	// slots grows by append up to capacity and is never shrunk.
	slots []Entry
	// head is the most and tail the least recently used slot; free heads
	// the list of removed slots.
	head, tail, free int32
}

// NewLRU creates a cache holding up to capacity items.
func NewLRU(capacity int) (*LRU, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("cache: capacity %d must be positive", capacity)
	}
	return &LRU{
		capacity: capacity,
		index:    make(map[workload.ItemID]int32, capacity),
		head:     none,
		tail:     none,
		free:     none,
	}, nil
}

// Cap returns the capacity in items.
func (c *LRU) Cap() int { return c.capacity }

// Len returns the number of cached items.
func (c *LRU) Len() int { return len(c.index) }

// Full reports whether the cache is at capacity.
func (c *LRU) Full() bool { return len(c.index) >= c.capacity }

// Get returns the entry for id and promotes it to most recently used,
// updating LastAccess to now. It returns nil when absent.
//
//hot:the local lookup of every request; 0 allocs/op pinned by TestLRUSteadyStateAllocs
func (c *LRU) Get(id workload.ItemID, now time.Duration) *Entry {
	i, ok := c.index[id]
	if !ok {
		return nil
	}
	e := &c.slots[i]
	e.LastAccess = now
	e.Accesses++
	c.toFront(i)
	return e
}

// Peek returns the entry for id without disturbing recency, or nil.
//
//hot:every peer search a host hears and every admission probe this cache
func (c *LRU) Peek(id workload.ItemID) *Entry {
	i, ok := c.index[id]
	if !ok {
		return nil
	}
	return &c.slots[i]
}

// Touch promotes id as if accessed at now, without returning it. This is
// the remote LRU refresh the cooperative admission protocol performs when a
// TCG member serves an item. It reports whether the item was present.
//
//hot:the refresh of every re-admitted copy and cooperative-admission touch
func (c *LRU) Touch(id workload.ItemID, now time.Duration) bool {
	return c.Get(id, now) != nil
}

// Add inserts a copy of e as most recently used. Inserting into a full
// cache or inserting a duplicate ID is a programming error and is
// reported.
//
//hot:every admission; 0 allocs/op pinned by TestLRUSteadyStateAllocs
func (c *LRU) Add(e Entry) error {
	if c.Full() {
		return ErrFull
	}
	if _, ok := c.index[e.ID]; ok {
		return ErrDuplicate
	}
	i := c.free
	if i != none {
		c.free = c.slots[i].next
	} else {
		i = int32(len(c.slots))
		c.slots = append(c.slots, Entry{})
	}
	e.prev, e.next = none, c.head
	c.slots[i] = e
	if c.head != none {
		c.slots[c.head].prev = i
	} else {
		c.tail = i
	}
	c.head = i
	c.index[e.ID] = i
	return nil
}

// Remove deletes the entry for id and returns it, or nil when absent. The
// returned entry stays readable until the next Add.
//
//hot:every eviction; 0 allocs/op pinned by TestLRUSteadyStateAllocs
func (c *LRU) Remove(id workload.ItemID) *Entry {
	i, ok := c.index[id]
	if !ok {
		return nil
	}
	delete(c.index, id)
	c.unlink(i)
	e := &c.slots[i]
	e.next = c.free
	c.free = i
	return e
}

// Victim returns the least recently used entry, or nil when empty.
//
//hot:the plain LRU eviction of every admission into a full cache
func (c *LRU) Victim() *Entry {
	if c.tail == none {
		return nil
	}
	return &c.slots[c.tail]
}

// VictimMatching returns the least recently used entry satisfying pred, or
// nil when none does.
//
//hot:the donated-window eviction of every accepted spillover offer
func (c *LRU) VictimMatching(pred func(*Entry) bool) *Entry {
	for i := c.tail; i != none; i = c.slots[i].prev {
		if e := &c.slots[i]; pred(e) {
			return e
		}
	}
	return nil
}

// Candidates appends up to n least valuable entries to dst[:0], least
// recently used first — the paper's ReplaceCandidate window — and returns
// the result. The entries are the live cache entries.
//
//hot:the ranked-replacement window of every admission into a full cache
func (c *LRU) Candidates(dst []*Entry, n int) []*Entry {
	dst = dst[:0]
	for i := c.tail; i != none && len(dst) < n; i = c.slots[i].prev {
		dst = append(dst, &c.slots[i])
	}
	return dst
}

// Items returns the IDs of all cached items in ascending ID order, so
// consumers (signature rebuilds, diagnostics) never observe Go's
// randomized map iteration order.
func (c *LRU) Items() []workload.ItemID {
	ids := make([]workload.ItemID, 0, len(c.index))
	for i := c.head; i != none; i = c.slots[i].next {
		ids = append(ids, c.slots[i].ID)
	}
	slices.Sort(ids)
	return ids
}

// Each calls fn for every entry, most recently used first.
func (c *LRU) Each(fn func(*Entry)) {
	for i := c.head; i != none; i = c.slots[i].next {
		fn(&c.slots[i])
	}
}

// toFront moves slot i to the most recently used end.
func (c *LRU) toFront(i int32) {
	if c.head == i {
		return
	}
	c.unlink(i)
	e := &c.slots[i]
	e.prev, e.next = none, c.head
	c.slots[c.head].prev = i
	c.head = i
}

// unlink takes slot i out of the recency list.
func (c *LRU) unlink(i int32) {
	e := &c.slots[i]
	if e.prev != none {
		c.slots[e.prev].next = e.next
	} else {
		c.head = e.next
	}
	if e.next != none {
		c.slots[e.next].prev = e.prev
	} else {
		c.tail = e.prev
	}
}
