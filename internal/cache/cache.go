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
// index, and a pointer-free open-addressed table resolves an ID to its
// slot, so neither an admission nor an eviction allocates once the slice
// has grown to capacity. An *Entry the cache returns points into that
// slice: it stays valid until the next Add, which may reuse a removed
// entry's slot or move the slice while it grows. So a removed entry can
// still be read until then, which is how an evicted victim is offered for
// spillover.
type LRU struct {
	capacity int
	n        int // cached items
	// table is the ID index: a power-of-two array of at least twice the
	// capacity, probed linearly from an ID's Fibonacci hash (its home
	// cell). A cell holds a slot index plus one, or 0 when empty; every
	// cell from an entry's home to its own is occupied, which deletion
	// keeps by shifting later entries of the run back (Knuth's Algorithm
	// R). With the load at most one half, a probe always meets an empty
	// cell.
	table []int32
	shift uint // 64 − log2(len(table))
	// slots grows by append up to capacity and is never shrunk.
	slots []Entry
	// head is the most and tail the least recently used slot; free heads
	// the list of removed slots.
	head, tail, free int32
}

// maxCapacity keeps slot indices plus one, and the table, within int32.
const maxCapacity = 1 << 29

// NewLRU creates a cache holding up to capacity items.
func NewLRU(capacity int) (*LRU, error) {
	if capacity <= 0 || capacity > maxCapacity {
		return nil, fmt.Errorf("cache: capacity %d must be in [1, %d]", capacity, maxCapacity)
	}
	bits := uint(1)
	for 1<<bits < 2*capacity {
		bits++
	}
	return &LRU{
		capacity: capacity,
		table:    make([]int32, 1<<bits),
		shift:    64 - bits,
		head:     none,
		tail:     none,
		free:     none,
	}, nil
}

// Cap returns the capacity in items.
func (c *LRU) Cap() int { return c.capacity }

// Len returns the number of cached items.
func (c *LRU) Len() int { return c.n }

// Full reports whether the cache is at capacity.
func (c *LRU) Full() bool { return c.n >= c.capacity }

// home is id's first table cell: the top bits of id·2⁶⁴/φ.
func (c *LRU) home(id workload.ItemID) uint64 {
	return uint64(id) * 0x9E3779B97F4A7C15 >> c.shift
}

// locate returns id's slot and the table cell holding it, or none and the
// empty cell where id's probe ended, which is where Add places it.
//
//hot:the index lookup of every Get, Peek, Add and Remove; 0 allocs/op pinned by TestIndexSteadyStateAllocs
func (c *LRU) locate(id workload.ItemID) (cell uint64, slot int32) {
	mask := uint64(len(c.table) - 1)
	for cell = c.home(id); ; cell = (cell + 1) & mask {
		slot = c.table[cell] - 1
		if slot == none || c.slots[slot].ID == id {
			return cell, slot
		}
	}
}

// vacate empties table cell h. Each later entry of the probe run whose
// home is not cyclically in (h, j], j its cell, moves back into the gap,
// which then moves to j; so no probe meets an empty cell before its entry.
//
//hot:the index deletion of every Remove; 0 allocs/op pinned by TestIndexSteadyStateAllocs
func (c *LRU) vacate(h uint64) {
	mask := uint64(len(c.table) - 1)
	for j := (h + 1) & mask; c.table[j] != 0; j = (j + 1) & mask {
		// The entry at j may fill the gap when its probe distance reaches
		// back to h or beyond.
		if (j-c.home(c.slots[c.table[j]-1].ID))&mask >= (j-h)&mask {
			c.table[h] = c.table[j]
			h = j
		}
	}
	c.table[h] = 0
}

// Get returns the entry for id and promotes it to most recently used,
// updating LastAccess to now. It returns nil when absent.
//
//hot:the local lookup of every request; 0 allocs/op pinned by TestLRUSteadyStateAllocs
func (c *LRU) Get(id workload.ItemID, now time.Duration) *Entry {
	_, i := c.locate(id)
	if i == none {
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
	_, i := c.locate(id)
	if i == none {
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
	cell, i := c.locate(e.ID)
	if i != none {
		return ErrDuplicate
	}
	i = c.free
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
	c.table[cell] = i + 1
	c.n++
	return nil
}

// Remove deletes the entry for id and returns it, or nil when absent. The
// returned entry stays readable until the next Add.
//
//hot:every eviction; 0 allocs/op pinned by TestLRUSteadyStateAllocs
func (c *LRU) Remove(id workload.ItemID) *Entry {
	cell, i := c.locate(id)
	if i == none {
		return nil
	}
	c.vacate(cell)
	c.n--
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

// Items returns the IDs of all cached items in ascending ID order.
func (c *LRU) Items() []workload.ItemID {
	ids := make([]workload.ItemID, 0, c.n)
	for i := c.head; i != none; i = c.slots[i].next {
		ids = append(ids, c.slots[i].ID)
	}
	slices.Sort(ids)
	return ids
}

// AppendValid appends to dst the IDs of up to n entries valid at now,
// most recently used first, and returns the result.
//
//hot:the hint list of every HintLRU hello
func (c *LRU) AppendValid(dst []workload.ItemID, n int, now time.Duration) []workload.ItemID {
	for i := c.head; i != none && n > 0; i = c.slots[i].next {
		if e := &c.slots[i]; e.Valid(now) {
			dst = append(dst, e.ID)
			n--
		}
	}
	return dst
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
