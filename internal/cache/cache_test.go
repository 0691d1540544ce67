package cache

import (
	"slices"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/workload"
)

func mustLRU(t *testing.T, capacity int) *LRU {
	t.Helper()
	c, err := NewLRU(capacity)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func add(t *testing.T, c *LRU, id workload.ItemID, now time.Duration) {
	t.Helper()
	if err := c.Add(Entry{ID: id, Size: 1024, RetrievedAt: now, TTL: time.Hour, LastAccess: now}); err != nil {
		t.Fatalf("Add(%d): %v", id, err)
	}
}

func TestNewLRUValidation(t *testing.T) {
	if _, err := NewLRU(0); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := NewLRU(-3); err == nil {
		t.Error("negative capacity accepted")
	}
}

func TestAddGetRemove(t *testing.T) {
	c := mustLRU(t, 3)
	add(t, c, 1, 0)
	add(t, c, 2, 0)
	if c.Len() != 2 {
		t.Fatalf("Len = %d", c.Len())
	}
	if e := c.Get(1, time.Second); e == nil || e.ID != 1 {
		t.Fatal("Get(1) failed")
	}
	if e := c.Get(99, time.Second); e != nil {
		t.Fatal("Get(99) returned entry")
	}
	if e := c.Remove(2); e == nil || e.ID != 2 {
		t.Fatal("Remove(2) failed")
	}
	if c.Remove(2) != nil {
		t.Fatal("second Remove(2) returned entry")
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d after removal", c.Len())
	}
}

func TestAddErrors(t *testing.T) {
	c := mustLRU(t, 2)
	add(t, c, 1, 0)
	if err := c.Add(Entry{ID: 1}); err != ErrDuplicate {
		t.Errorf("duplicate add: err = %v, want ErrDuplicate", err)
	}
	add(t, c, 2, 0)
	if !c.Full() {
		t.Error("Full() = false at capacity")
	}
	if err := c.Add(Entry{ID: 3}); err != ErrFull {
		t.Errorf("add into full cache: err = %v, want ErrFull", err)
	}
}

func TestLRUOrderingAndVictim(t *testing.T) {
	c := mustLRU(t, 3)
	add(t, c, 1, 1*time.Second)
	add(t, c, 2, 2*time.Second)
	add(t, c, 3, 3*time.Second)
	if v := c.Victim(); v.ID != 1 {
		t.Fatalf("victim = %d, want 1", v.ID)
	}
	c.Get(1, 4*time.Second) // promote 1
	if v := c.Victim(); v.ID != 2 {
		t.Fatalf("victim after Get(1) = %d, want 2", v.ID)
	}
	if !c.Touch(2, 5*time.Second) { // promote 2
		t.Fatal("Touch(2) = false")
	}
	if v := c.Victim(); v.ID != 3 {
		t.Fatalf("victim after Touch(2) = %d, want 3", v.ID)
	}
	if c.Touch(42, 0) {
		t.Error("Touch of absent item = true")
	}
}

func TestPeekDoesNotPromote(t *testing.T) {
	c := mustLRU(t, 2)
	add(t, c, 1, 0)
	add(t, c, 2, 0)
	if e := c.Peek(1); e == nil {
		t.Fatal("Peek(1) = nil")
	}
	if v := c.Victim(); v.ID != 1 {
		t.Errorf("Peek promoted entry; victim = %d, want 1", v.ID)
	}
}

func TestCandidatesOrder(t *testing.T) {
	c := mustLRU(t, 5)
	for i := 1; i <= 5; i++ {
		add(t, c, workload.ItemID(i), time.Duration(i)*time.Second)
	}
	got := c.Candidates(nil, 3)
	want := []workload.ItemID{1, 2, 3}
	if len(got) != 3 {
		t.Fatalf("Candidates len = %d", len(got))
	}
	for i, w := range want {
		if got[i].ID != w {
			t.Errorf("candidate[%d] = %d, want %d", i, got[i].ID, w)
		}
	}
	if got := c.Candidates(got, 10); len(got) != 5 {
		t.Errorf("Candidates(10) len = %d, want 5", len(got))
	}
	if got := c.Candidates(got, 0); len(got) != 0 {
		t.Errorf("Candidates(0) = %v, want none", got)
	}
}

func TestEntryValidity(t *testing.T) {
	e := &Entry{RetrievedAt: 10 * time.Second, TTL: 5 * time.Second}
	if !e.Valid(12 * time.Second) {
		t.Error("entry invalid before expiry")
	}
	if !e.Valid(15 * time.Second) {
		t.Error("entry invalid exactly at expiry")
	}
	if e.Valid(15*time.Second + 1) {
		t.Error("entry valid past expiry")
	}
	zero := &Entry{RetrievedAt: 10 * time.Second, TTL: 0}
	if zero.Valid(10*time.Second + 1) {
		t.Error("zero-TTL entry valid after retrieval instant")
	}
}

func TestItemsAndEach(t *testing.T) {
	c := mustLRU(t, 4)
	ids := []workload.ItemID{7, 8, 9}
	for _, id := range ids {
		add(t, c, id, 0)
	}
	got := c.Items()
	if len(got) != 3 {
		t.Fatalf("Items len = %d", len(got))
	}
	seen := map[workload.ItemID]bool{}
	for _, id := range got {
		seen[id] = true
	}
	for _, id := range ids {
		if !seen[id] {
			t.Errorf("Items missing %d", id)
		}
	}
	var visited []workload.ItemID
	c.Each(func(e *Entry) { visited = append(visited, e.ID) })
	// Most recent first: 9, 8, 7.
	want := []workload.ItemID{9, 8, 7}
	for i, w := range want {
		if visited[i] != w {
			t.Errorf("Each order = %v, want %v", visited, want)
			break
		}
	}
}

// TestAppendValid lists valid entries most recently used first, skips
// expired ones, stops at the limit and appends after what dst holds.
func TestAppendValid(t *testing.T) {
	c := mustLRU(t, 5)
	for id := workload.ItemID(1); id <= 5; id++ {
		add(t, c, id, 0)
	}
	c.Peek(4).TTL = 0 // expired at any time after 0
	c.Peek(2).TTL = 0
	now := time.Second
	for _, tc := range []struct {
		n    int
		want []workload.ItemID
	}{
		{0, []workload.ItemID{99}},
		{1, []workload.ItemID{99, 5}},
		{2, []workload.ItemID{99, 5, 3}},
		{10, []workload.ItemID{99, 5, 3, 1}},
	} {
		got := c.AppendValid([]workload.ItemID{99}, tc.n, now)
		if !slices.Equal(got, tc.want) {
			t.Errorf("AppendValid(n=%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

// Property: after any sequence of adds (evicting the LRU victim when full)
// and gets, Len never exceeds Cap and the victim is the least recently
// used among present items.
func TestLRUInvariantProperty(t *testing.T) {
	type op struct {
		ID  uint8
		Get bool
	}
	prop := func(ops []op) bool {
		c, err := NewLRU(8)
		if err != nil {
			return false
		}
		now := time.Duration(0)
		lastUse := map[workload.ItemID]time.Duration{}
		for _, o := range ops {
			now += time.Second
			id := workload.ItemID(o.ID % 16)
			if o.Get {
				if e := c.Get(id, now); e != nil {
					lastUse[id] = now
				}
				continue
			}
			if c.Peek(id) != nil {
				c.Get(id, now) // treat as refresh
				lastUse[id] = now
				continue
			}
			if c.Full() {
				v := c.Victim()
				c.Remove(v.ID)
				delete(lastUse, v.ID)
			}
			if err := c.Add(Entry{ID: id, LastAccess: now}); err != nil {
				return false
			}
			lastUse[id] = now
		}
		if c.Len() > c.Cap() {
			return false
		}
		if v := c.Victim(); v != nil {
			for id, ts := range lastUse {
				if ts < lastUse[v.ID] && c.Peek(id) != nil {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
