package cache

import (
	"container/list"
	"fmt"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/workload"
)

// modelLRU is the reference model for LRU: the cache as it was built on
// container/list, one heap entry and one list element per item.
type modelLRU struct {
	capacity int
	entries  map[workload.ItemID]*list.Element
	order    *list.List // *Entry values, most recently used at the front
}

func newModelLRU(capacity int) *modelLRU {
	return &modelLRU{capacity: capacity, entries: map[workload.ItemID]*list.Element{}, order: list.New()}
}

func (m *modelLRU) entry(el *list.Element) *Entry { return el.Value.(*Entry) }

func (m *modelLRU) full() bool { return len(m.entries) >= m.capacity }

func (m *modelLRU) get(id workload.ItemID, now time.Duration) *Entry {
	el, ok := m.entries[id]
	if !ok {
		return nil
	}
	e := m.entry(el)
	e.LastAccess = now
	e.Accesses++
	m.order.MoveToFront(el)
	return e
}

func (m *modelLRU) peek(id workload.ItemID) *Entry {
	if el, ok := m.entries[id]; ok {
		return m.entry(el)
	}
	return nil
}

func (m *modelLRU) add(e Entry) error {
	if m.full() {
		return ErrFull
	}
	if _, ok := m.entries[e.ID]; ok {
		return ErrDuplicate
	}
	m.entries[e.ID] = m.order.PushFront(&e)
	return nil
}

func (m *modelLRU) remove(id workload.ItemID) *Entry {
	el, ok := m.entries[id]
	if !ok {
		return nil
	}
	m.order.Remove(el)
	delete(m.entries, id)
	return m.entry(el)
}

func (m *modelLRU) victimMatching(pred func(*Entry) bool) *Entry {
	for el := m.order.Back(); el != nil; el = el.Prev() {
		if e := m.entry(el); pred(e) {
			return e
		}
	}
	return nil
}

func (m *modelLRU) candidates(n int) []*Entry {
	var out []*Entry
	for el := m.order.Back(); el != nil && len(out) < n; el = el.Prev() {
		out = append(out, m.entry(el))
	}
	return out
}

func (m *modelLRU) items() []workload.ItemID {
	var ids []workload.ItemID
	for id := range m.entries {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func (m *modelLRU) each() []view {
	var out []view
	for el := m.order.Front(); el != nil; el = el.Next() {
		out = append(out, public(m.entry(el)))
	}
	return out
}

// view is what a caller sees of a returned entry: its exported fields,
// or nothing when the entry is absent.
type view struct {
	Entry
	present bool
}

func public(e *Entry) view {
	if e == nil {
		return view{}
	}
	v := view{Entry: *e, present: true}
	v.prev, v.next = 0, 0
	return v
}

func publicAll(es []*Entry) []view {
	out := make([]view, len(es))
	for i, e := range es {
		out[i] = public(e)
	}
	return out
}

// TestLRUMatchesReferenceModel drives the slot-array LRU and the
// container/list model with the same random operation sequences and
// requires every return value, the mutations made through returned
// entries, Items and the Each order to agree, and the slot array to stay
// within capacity.
func TestLRUMatchesReferenceModel(t *testing.T) {
	for _, capacity := range []int{1, 2, 5, 100} {
		for seed := int64(1); seed <= 10; seed++ {
			t.Run(fmt.Sprintf("cap=%d/seed=%d", capacity, seed), func(t *testing.T) {
				checkAgainstModel(t, capacity, seed, 2000)
			})
		}
	}
}

func checkAgainstModel(t *testing.T, capacity int, seed int64, steps int) {
	t.Helper()
	type result struct {
		err   error
		ok    bool
		entry view
		list  []view
	}
	rng := sim.NewRNG(seed).Stream("lru-model")
	c, err := NewLRU(capacity)
	if err != nil {
		t.Fatal(err)
	}
	m := newModelLRU(capacity)
	ids := 2*capacity + 3
	donated := func(e *Entry) bool { return e.Donated }
	var scratch []*Entry
	var each []view
	for step := 0; step < steps; step++ {
		now := time.Duration(step) * time.Millisecond
		id := workload.ItemID(rng.Intn(ids))
		var op string
		var got, want result
		switch rng.Intn(9) {
		case 0, 1:
			op = "Add"
			e := Entry{ID: id, Size: 7, RetrievedAt: now, TTL: time.Duration(rng.Intn(5)) * time.Second,
				LastAccess: now, SingletTTL: 2, Donated: rng.Intn(3) == 0}
			got.err, want.err = c.Add(e), m.add(e)
		case 2:
			op = "Get"
			ge, me := c.Get(id, now), m.get(id, now)
			got.entry, want.entry = public(ge), public(me)
			if ge != nil && me != nil && rng.Intn(2) == 0 {
				// Writes through a returned entry must reach the cache.
				ge.SingletTTL, me.SingletTTL = step, step
				ge.Donated, me.Donated = false, false
			}
		case 3:
			op = "Peek"
			got.entry, want.entry = public(c.Peek(id)), public(m.peek(id))
		case 4:
			op = "Touch"
			got.ok, want.ok = c.Touch(id, now), m.get(id, now) != nil
		case 5:
			op = "Remove"
			got.entry, want.entry = public(c.Remove(id)), public(m.remove(id))
		case 6:
			op = "Victim"
			mv := (*Entry)(nil)
			if back := m.order.Back(); back != nil {
				mv = m.entry(back)
			}
			got.entry, want.entry = public(c.Victim()), public(mv)
		case 7:
			op = "VictimMatching"
			got.entry, want.entry = public(c.VictimMatching(donated)), public(m.victimMatching(donated))
		case 8:
			op = "Candidates"
			n := rng.Intn(capacity + 2)
			scratch = c.Candidates(scratch, n)
			got.list, want.list = publicAll(scratch), publicAll(m.candidates(n))
		}
		if got.err != want.err || got.ok != want.ok || got.entry != want.entry || !slices.Equal(got.list, want.list) {
			t.Fatalf("step %d: %s(%d) = %+v, model %+v", step, op, id, got, want)
		}
		if c.Len() != len(m.entries) || c.Full() != m.full() {
			t.Fatalf("step %d: Len/Full = %d/%v, model %d/%v", step, c.Len(), c.Full(), len(m.entries), m.full())
		}
		// Removed slots are recycled: the slot array never outgrows the
		// capacity, and every slot is either cached or free.
		free := 0
		for i := c.free; i != none; i = c.slots[i].next {
			free++
		}
		if len(c.slots) > capacity || c.Len()+free != len(c.slots) {
			t.Fatalf("step %d: %d slots with %d cached and %d free, capacity %d", step, len(c.slots), c.Len(), free, capacity)
		}
		if got, want := c.Items(), m.items(); !slices.Equal(got, want) {
			t.Fatalf("step %d: Items = %v, model %v", step, got, want)
		}
		each = each[:0]
		c.Each(func(e *Entry) { each = append(each, public(e)) })
		if want := m.each(); !slices.Equal(each, want) {
			t.Fatalf("step %d: Each = %+v, model %+v", step, each, want)
		}
	}
}

// TestRemovedEntryReadableUntilNextAdd pins the *Entry lifetime the
// client's spillover relies on: a removed entry keeps its fields until
// the next Add reuses its slot.
func TestRemovedEntryReadableUntilNextAdd(t *testing.T) {
	c := mustLRU(t, 2)
	add(t, c, 1, time.Second)
	add(t, c, 2, 2*time.Second)
	c.Get(1, 3*time.Second)
	v := c.Victim()
	if v.ID != 2 {
		t.Fatalf("victim = %d, want 2", v.ID)
	}
	removed := c.Remove(v.ID)
	if removed != v || removed.ID != 2 || removed.RetrievedAt != 2*time.Second || removed.TTL != time.Hour {
		t.Fatalf("removed entry = %+v, want item 2 as added", removed)
	}
	if c.Peek(2) != nil || c.Len() != 1 {
		t.Fatal("removed entry still cached")
	}
	// The next Add takes the freed slot.
	add(t, c, 3, 4*time.Second)
	if removed.ID != 3 || c.Peek(3) != removed {
		t.Errorf("the slot freed by Remove was not reused: %+v", removed)
	}
}

// TestLRUSteadyStateAllocs pins a hit and an evicting admission at zero
// allocations once the slot array has grown to capacity.
func TestLRUSteadyStateAllocs(t *testing.T) {
	c := mustLRU(t, 64)
	for i := range 64 {
		add(t, c, workload.ItemID(i), 0)
	}
	var scratch []*Entry
	next := workload.ItemID(64)
	round := func() {
		c.Get(next-10, time.Second)
		scratch = c.Candidates(scratch, 5)
		c.Remove(c.Victim().ID)
		if err := c.Add(Entry{ID: next}); err != nil {
			t.Fatal(err)
		}
		next++
	}
	round()
	if avg := testing.AllocsPerRun(200, round); avg != 0 {
		t.Errorf("a hit and an evicting admission allocate %.1f times, want 0", avg)
	}
}

// BenchmarkLRUHit measures a local hit: Get of a cached item, which
// promotes it to most recently used.
func BenchmarkLRUHit(b *testing.B) {
	const capacity = 100
	c, err := NewLRU(capacity)
	if err != nil {
		b.Fatal(err)
	}
	for i := range capacity {
		if err := c.Add(Entry{ID: workload.ItemID(i)}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c.Get(workload.ItemID(i%capacity), time.Duration(i)) == nil {
			b.Fatal("miss")
		}
	}
}

// BenchmarkLRUAdmit measures a miss at capacity: the lookup misses, the
// least recently used entry is evicted, and the new item is added.
func BenchmarkLRUAdmit(b *testing.B) {
	const capacity = 100
	c, err := NewLRU(capacity)
	if err != nil {
		b.Fatal(err)
	}
	for i := range capacity {
		if err := c.Add(Entry{ID: workload.ItemID(i)}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := workload.ItemID(capacity + i)
		if c.Get(id, time.Duration(i)) != nil {
			b.Fatal("hit")
		}
		c.Remove(c.Victim().ID)
		if err := c.Add(Entry{ID: id, LastAccess: time.Duration(i)}); err != nil {
			b.Fatal(err)
		}
	}
}
