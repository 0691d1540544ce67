package strategy

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/cache"
)

// stubScheme is a minimal Scheme for Register tests.
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
			t.Fatalf("panic value %v (%T) is not a string", r, r)
		}
		if !strings.Contains(msg, want) {
			t.Fatalf("panic %q does not mention %q", msg, want)
		}
	}()
	fn()
}

// withTableCopy lets a test Register stubs: it swaps in a copy of the
// scheme table and restores the original when the test ends.
func withTableCopy(t *testing.T) {
	t.Helper()
	saved := schemes
	schemes = append([]Scheme(nil), saved...)
	t.Cleanup(func() { schemes = saved })
}

// TestSchemeTable checks what the table literal cannot: every entry sits
// at its own ID, names are non-empty and distinct when lower-cased (they
// are the command-line spellings), enumeration is ID-ascending, and
// Lookup rejects every ID the table does not list.
func TestSchemeTable(t *testing.T) {
	if schemes[0] != nil {
		t.Errorf("slot 0 holds %q; IDs start at 1", schemes[0].Name())
	}
	flags := map[string]ID{}
	for i, s := range schemes {
		if s == nil {
			continue
		}
		if s.ID() != ID(i) {
			t.Errorf("table slot %d holds %q with ID %d", i, s.Name(), s.ID())
		}
		if s.Name() == "" {
			t.Errorf("scheme ID %d has an empty name", i)
		}
		if prev, dup := flags[FlagOf(s)]; dup {
			t.Errorf("schemes %d and %d share the flag %q", prev, i, FlagOf(s))
		}
		flags[FlagOf(s)] = ID(i)
	}
	ids := IDs()
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			t.Errorf("IDs() = %v is not ascending", ids)
		}
	}
	for i, s := range All() {
		if s.ID() != ids[i] || FlagOf(s) != Flags()[i] {
			t.Errorf("All()[%d] = %q disagrees with IDs()/Flags()", i, s.Name())
		}
	}
	for _, id := range []ID{0, -1, ID(len(schemes)), ID(len(schemes) + 7)} {
		if s, ok := Lookup(id); ok || s != nil {
			t.Errorf("Lookup(%d) = %v, %v; want nil, false", id, s, ok)
		}
	}

	// An ID past the end enters the table through Register; the slots it
	// skips stay unlisted.
	withTableCopy(t)
	gap, far := ID(len(schemes)), ID(len(schemes)+1)
	Register(stubScheme{id: far, name: "Far"})
	if s, ok := Lookup(far); !ok || s.Name() != "Far" {
		t.Errorf("Lookup(%d) after Register = %v, %v", far, s, ok)
	}
	if _, ok := Lookup(gap); ok {
		t.Errorf("Lookup(%d) resolved an unlisted ID", gap)
	}
	if got := IDs(); got[len(got)-1] != far || len(got) != len(ids)+1 {
		t.Errorf("IDs() after Register = %v", got)
	}
}

// TestRegisterRejectsDuplicates: Register never overwrites a listed
// scheme, built-in or registered, and never lists a second scheme under a
// flag ByFlag already resolves.
func TestRegisterRejectsDuplicates(t *testing.T) {
	t.Run("id", func(t *testing.T) {
		withTableCopy(t)
		mustPanic(t, "free positive ID", func() { Register(stubScheme{id: GroCoca, name: "Other"}) })
		Register(stubScheme{id: 9, name: "Nine"})
		mustPanic(t, "free positive ID", func() { Register(stubScheme{id: 9, name: "Again"}) })
		if s, _ := Lookup(GroCoca); s.Name() != "GroCoca" {
			t.Errorf("Lookup(GroCoca) = %q after a rejected Register", s.Name())
		}
		if s, _ := Lookup(9); s.Name() != "Nine" {
			t.Errorf("Lookup(9) = %q after a rejected Register", s.Name())
		}
	})
	for _, tc := range []struct{ name, dup string }{
		{"name", "Nine"},
		{"flag", "NINE"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			withTableCopy(t)
			Register(stubScheme{id: 9, name: "Nine"})
			mustPanic(t, "free flag", func() { Register(stubScheme{id: 10, name: tc.dup}) })
			mustPanic(t, "free flag", func() { Register(stubScheme{id: 10, name: strings.ToUpper("GroCoca")}) })
			if s, ok := Lookup(10); ok {
				t.Errorf("Lookup(10) = %q after a rejected Register", s.Name())
			}
			if s, _ := ByFlag("nine"); s.ID() != 9 {
				t.Errorf("ByFlag(nine) = scheme %d after a rejected Register", s.ID())
			}
		})
	}
}

func TestRegisterRejectsMalformedSchemes(t *testing.T) {
	for _, tc := range []struct {
		name string
		s    stubScheme
		want string
	}{
		{"zero-id", stubScheme{id: 0, name: "Bad"}, "free positive ID"},
		{"negative-id", stubScheme{id: -1, name: "Bad"}, "free positive ID"},
		{"empty-name", stubScheme{id: 9, name: ""}, "needs a name"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			withTableCopy(t)
			mustPanic(t, tc.want, func() { Register(tc.s) })
			if s, ok := Lookup(tc.s.id); ok && s.Name() == tc.s.name {
				t.Errorf("Lookup(%d) = %q after a rejected Register", tc.s.id, s.Name())
			}
		})
	}
}

// TestEnumerationOrderIndependent registers the same schemes in two
// different orders and requires identical, ID-ascending enumerations.
func TestEnumerationOrderIndependent(t *testing.T) {
	base := ID(len(schemes))
	set := []stubScheme{
		{id: base + 2, name: "C"},
		{id: base, name: "A"},
		{id: base + 1, name: "B"},
	}
	wantIDs := append(IDs(), base, base+1, base+2)
	wantFlags := append(Flags(), "a", "b", "c")
	enumerate := func(order []int) ([]ID, []string, []ID) {
		saved := schemes
		schemes = append([]Scheme(nil), saved...)
		defer func() { schemes = saved }()
		for _, i := range order {
			Register(set[i])
		}
		var all []ID
		for _, s := range All() {
			all = append(all, s.ID())
		}
		return IDs(), Flags(), all
	}
	fwdIDs, fwdFlags, fwdAll := enumerate([]int{0, 1, 2})
	revIDs, revFlags, revAll := enumerate([]int{2, 1, 0})
	if !reflect.DeepEqual(fwdIDs, wantIDs) {
		t.Errorf("IDs() = %v, want %v", fwdIDs, wantIDs)
	}
	if !reflect.DeepEqual(fwdIDs, revIDs) {
		t.Errorf("IDs() depends on registration order: %v vs %v", fwdIDs, revIDs)
	}
	if !reflect.DeepEqual(fwdFlags, wantFlags) {
		t.Errorf("Flags() = %v, want %v", fwdFlags, wantFlags)
	}
	if !reflect.DeepEqual(fwdFlags, revFlags) {
		t.Errorf("Flags() depends on registration order: %v vs %v", fwdFlags, revFlags)
	}
	if !reflect.DeepEqual(fwdAll, wantIDs) || !reflect.DeepEqual(fwdAll, revAll) {
		t.Errorf("All() IDs = %v forward, %v reversed; want %v", fwdAll, revAll, wantIDs)
	}
}

// TestBuiltinSchemes pins the built-in scheme set: the paper's trio on
// their historical IDs (part of the seed-derivation contract), then the
// extension schemes.
func TestBuiltinSchemes(t *testing.T) {
	wantIDs := []ID{SC, COCA, GroCoca, Popularity, HintLRU}
	if got := IDs(); !reflect.DeepEqual(got, wantIDs) {
		t.Fatalf("IDs() = %v, want %v", got, wantIDs)
	}
	wantFlags := []string{"sc", "coca", "grococa", "popularity", "hintlru"}
	if got := Flags(); !reflect.DeepEqual(got, wantFlags) {
		t.Fatalf("Flags() = %v, want %v", got, wantFlags)
	}
	if got, want := Paper(), []ID{SC, COCA, GroCoca}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Paper() = %v, want %v", got, want)
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
		t.Errorf("unlisted ID String() = %q, want unknown", ID(99).String())
	}
	if _, ok := ByFlag("bogus"); ok {
		t.Error("ByFlag(bogus) resolved")
	}
	if got := TraitsOf(ID(99)); got != (Traits{}) {
		t.Errorf("TraitsOf(unlisted) = %+v, want zero", got)
	}
}
