package conformance_test

import (
	"os"
	"os/exec"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/strategy"
	"repro/internal/strategy/conformance"
	"repro/internal/workload"
)

// selfTestEnv gates the deliberately-broken scheme: the outer
// TestConformanceSelfTest re-execs this test binary with it set and
// requires the conformance suite to FAIL — the suite's own defect
// selftest, mirroring the grococa-lint and grococa-chaos conventions.
const selfTestEnv = "GROCOCA_CONFORMANCE_SELFTEST"

func init() {
	if os.Getenv(selfTestEnv) != "" {
		strategy.Register(brokenScheme{})
	}
}

// brokenScheme is deliberately nondeterministic: it picks the replacement
// victim by Go map iteration order, so two runs of the same seed diverge.
// It must fail the conformance suite; if it ever passes, the determinism
// properties have rotted.
type brokenScheme struct{}

func (brokenScheme) ID() strategy.ID { return 99 }
func (brokenScheme) Name() string    { return "BrokenSelfTest" }
func (brokenScheme) Traits() strategy.Traits {
	return strategy.Traits{PeerSearch: true}
}
func (brokenScheme) ReplaceActive(strategy.ReplacementEnv) bool { return true }
func (brokenScheme) PickVictim(_ strategy.ReplacementEnv, cands []*cache.Entry) (*cache.Entry, strategy.EvictOutcome) {
	byID := make(map[workload.ItemID]*cache.Entry, len(cands))
	for _, e := range cands {
		byID[e.ID] = e
	}
	for _, e := range byID {
		return e, strategy.EvictLRU
	}
	return cands[0], strategy.EvictLRU
}

// TestSchemeConformance runs the universal property table against every
// registered scheme. A new scheme only has to register itself to be
// covered; it cannot opt out.
func TestSchemeConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario simulations in -short mode")
	}
	for _, sch := range strategy.All() {
		sch := sch
		t.Run(strategy.FlagOf(sch), func(t *testing.T) { conformance.Run(t, sch) })
	}
}

// TestConformanceSelfTest proves the suite can fail: it re-execs the test
// binary with the broken scheme registered and requires the conformance
// run over it to exit nonzero.
func TestConformanceSelfTest(t *testing.T) {
	if os.Getenv(selfTestEnv) != "" {
		t.Skip("inner self-test process")
	}
	if testing.Short() {
		t.Skip("scenario simulations in -short mode")
	}
	cmd := exec.Command(os.Args[0],
		"-test.run", "TestSchemeConformance/brokenselftest",
		"-test.count=1", "-test.v")
	cmd.Env = append(os.Environ(), selfTestEnv+"=1")
	out, err := cmd.CombinedOutput()
	if !strings.Contains(string(out), "brokenselftest") {
		t.Fatalf("inner run never reached the broken scheme:\n%s", out)
	}
	if err == nil {
		t.Fatalf("deliberately broken scheme PASSED conformance — the determinism properties have rotted:\n%s", out)
	}
	t.Logf("broken scheme failed conformance as required (%v)", err)
}
