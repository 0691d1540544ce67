package strategy

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/cache"
)

// stubScheme is a minimal Scheme for registry tests.
type stubScheme struct {
	id   ID
	name string
}

func (s stubScheme) ID() ID                            { return s.id }
func (s stubScheme) Name() string                      { return s.name }
func (s stubScheme) Traits() Traits                    { return Traits{} }
func (s stubScheme) ReplaceActive(ReplacementEnv) bool { return false }
func (s stubScheme) PickVictim(_ ReplacementEnv, cands []*cache.Entry) (*cache.Entry, EvictOutcome) {
	return cands[0], EvictLRU
}

// mustPanic runs fn and fails the test unless it panics with a message
// containing want.
func mustPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic (want panic containing %q)", want)
		}
		msg, ok := r.(string)
		if !ok {
			if err, isErr := r.(error); isErr {
				msg = err.Error()
			} else {
				t.Fatalf("panic value %v (%T) is not a string", r, r)
			}
		}
		if !strings.Contains(msg, want) {
			t.Fatalf("panic %q does not mention %q", msg, want)
		}
	}()
	fn()
}

func TestRegisterRejectsDuplicates(t *testing.T) {
	base := stubScheme{id: 7, name: "Seven"}
	cases := []struct {
		name string
		dup  stubScheme
		want string
	}{
		{"id", stubScheme{id: 7, name: "Other"}, "duplicate scheme ID"},
		{"name", stubScheme{id: 8, name: "Seven"}, "duplicate scheme flag"},
		{"flag", stubScheme{id: 8, name: "SEVEN"}, "duplicate scheme flag"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRegistry()
			r.Register(base)
			mustPanic(t, tc.want, func() { r.Register(tc.dup) })
		})
	}
}

func TestRegisterRejectsMalformedSchemes(t *testing.T) {
	cases := []struct {
		name string
		s    stubScheme
		want string
	}{
		{"zero-id", stubScheme{id: 0, name: "Zero"}, "positive"},
		{"negative-id", stubScheme{id: -1, name: "Neg"}, "positive"},
		{"empty-name", stubScheme{id: 9, name: ""}, "name"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRegistry()
			mustPanic(t, tc.want, func() { r.Register(tc.s) })
		})
	}
}

// TestEnumerationOrderIndependent registers the same scheme set in two
// different orders and requires identical (ID-sorted) enumerations.
func TestEnumerationOrderIndependent(t *testing.T) {
	set := []stubScheme{
		{id: 3, name: "C"},
		{id: 1, name: "A"},
		{id: 2, name: "B"},
	}
	forward, reversed := NewRegistry(), NewRegistry()
	for _, s := range set {
		forward.Register(s)
	}
	for i := len(set) - 1; i >= 0; i-- {
		reversed.Register(set[i])
	}
	if got, want := forward.IDs(), []ID{1, 2, 3}; !reflect.DeepEqual(got, want) {
		t.Errorf("IDs() = %v, want %v", got, want)
	}
	if !reflect.DeepEqual(forward.IDs(), reversed.IDs()) {
		t.Errorf("IDs() depends on registration order: %v vs %v", forward.IDs(), reversed.IDs())
	}
	if got, want := forward.Flags(), []string{"a", "b", "c"}; !reflect.DeepEqual(got, want) {
		t.Errorf("Flags() = %v, want %v", got, want)
	}
	if !reflect.DeepEqual(forward.Flags(), reversed.Flags()) {
		t.Errorf("Flags() depends on registration order: %v vs %v", forward.Flags(), reversed.Flags())
	}
	for i, s := range forward.All() {
		if s.ID() != ID(i+1) {
			t.Errorf("All()[%d].ID() = %d, want %d", i, s.ID(), i+1)
		}
	}
}

// TestDefaultRegistryContents pins the built-in scheme set: the paper's
// trio on their historical IDs (part of the seed-derivation contract),
// then the extension schemes.
func TestDefaultRegistryContents(t *testing.T) {
	wantIDs := []ID{SC, COCA, GroCoca, Popularity, HintLRU}
	if got := IDs(); !reflect.DeepEqual(got, wantIDs) {
		t.Fatalf("IDs() = %v, want %v", got, wantIDs)
	}
	wantFlags := []string{"sc", "coca", "grococa", "popularity", "hintlru"}
	if got := Flags(); !reflect.DeepEqual(got, wantFlags) {
		t.Fatalf("Flags() = %v, want %v", got, wantFlags)
	}
	wantNames := map[ID]string{SC: "SC", COCA: "COCA", GroCoca: "GroCoca", Popularity: "Popularity", HintLRU: "HintLRU"}
	for id, name := range wantNames {
		if id.String() != name {
			t.Errorf("%d.String() = %q, want %q", id, id.String(), name)
		}
		sch, ok := Lookup(id)
		if !ok {
			t.Errorf("Lookup(%d) missing", id)
			continue
		}
		if sch.Name() != name {
			t.Errorf("Lookup(%d).Name() = %q, want %q", id, sch.Name(), name)
		}
		if byFlag, ok := ByFlag(strings.ToLower(name)); !ok || byFlag.ID() != id {
			t.Errorf("ByFlag(%q) does not resolve ID %d — the digest repro commands depend on that", strings.ToLower(name), id)
		}
	}
	if ID(99).String() != "unknown" {
		t.Errorf("unregistered ID String() = %q, want unknown", ID(99).String())
	}
	if _, ok := ByFlag("bogus"); ok {
		t.Error("ByFlag(bogus) resolved")
	}
	if got := TraitsOf(ID(99)); got != (Traits{}) {
		t.Errorf("TraitsOf(unregistered) = %+v, want zero", got)
	}
}
