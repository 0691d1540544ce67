package integration

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/resilience"
)

// The seed-digest guard complements the static determinism lint suite
// (cmd/grococa-lint) dynamically: for every scheme, with and without a
// fault plan, and with the fault plan under the full resilience policy,
// the same seed must produce byte-identical Results — and the
// digests are pinned in testdata/seed_digests.json, so an *intended*
// behavior change shows up as a one-line golden diff at review time while
// an unintended one fails CI.
//
// To regenerate after an intentional behavior change:
//
//	UPDATE_SEED_DIGESTS=1 go test ./internal/integration -run TestSeedDigest
const digestGoldenFile = "testdata/seed_digests.json"

// digestCase is one cell of the digest matrix.
type digestCase struct {
	name       string
	scheme     core.Scheme
	faults     bool
	resilience bool
}

// digestCases spans every registered scheme, each without faults, with
// faults, and with faults under the full resilience policy.
func digestCases() []digestCase {
	var cases []digestCase
	for _, s := range core.Schemes() {
		name := strings.ToLower(s.String())
		cases = append(cases,
			digestCase{name: name, scheme: s},
			digestCase{name: name + "+faults", scheme: s, faults: true},
			digestCase{name: name + "+faults+resilience", scheme: s, faults: true, resilience: true},
		)
	}
	return cases
}

// digestConfig is the guard's run: tiny but exercising every scheme path,
// and — in the faults variant — loss recovery. The resilience variant
// adds server outages dense enough to trip the breaker, under
// resilience.DefaultPolicy: budgets, jittered backoff, deadlines,
// breaker, hedging and serve-stale.
func digestConfig(c digestCase) core.Config {
	cfg := core.DefaultConfig()
	cfg.Scheme = c.scheme
	cfg.NumClients = 12
	cfg.NData = 600
	cfg.AccessRange = 100
	cfg.CacheSize = 25
	cfg.WarmupRequests = 15
	cfg.MeasuredRequests = 25
	if c.faults {
		cfg.P2PLossProb = 0.05
		cfg.UplinkLossProb = 0.02
		cfg.DownlinkLossProb = 0.02
	}
	if c.resilience {
		cfg.ServerOutagePeriod = 12 * time.Second
		cfg.ServerOutageDuration = 4 * time.Second
		cfg.Resilience = resilience.DefaultPolicy()
	}
	return cfg
}

// resultsDigest canonicalizes Results to JSON (map keys sorted by
// encoding/json) and hashes it.
func resultsDigest(t *testing.T, r core.Results) string {
	t.Helper()
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// reproCommand renders the one-liner that replays a digest case outside
// the test harness, so a regression is immediately reproducible.
func reproCommand(c digestCase) string {
	cfg := digestConfig(c)
	cmd := fmt.Sprintf(
		"go run ./cmd/grococa-sim -scheme %s -seed %d -clients %d -ndata %d -accessrange %d -cachesize %d -warmup %d -requests %d",
		strings.ToLower(c.scheme.String()), cfg.Seed, cfg.NumClients, cfg.NData,
		cfg.AccessRange, cfg.CacheSize, cfg.WarmupRequests, cfg.MeasuredRequests)
	if c.faults {
		cmd += fmt.Sprintf(" -p2ploss %g -uplinkloss %g -downlinkloss %g",
			cfg.P2PLossProb, cfg.UplinkLossProb, cfg.DownlinkLossProb)
	}
	if c.resilience {
		cmd += fmt.Sprintf(" -outageperiod %v -outageduration %v -resilience",
			cfg.ServerOutagePeriod, cfg.ServerOutageDuration)
	}
	return cmd
}

// TestSeedDigest runs every digest case twice, requires the two runs to be
// bit-identical, and pins the digest against the committed golden file.
func TestSeedDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario simulations in -short mode")
	}
	update := os.Getenv("UPDATE_SEED_DIGESTS") != ""

	golden := make(map[string]string)
	if !update {
		data, err := os.ReadFile(digestGoldenFile)
		if err != nil {
			t.Fatalf("missing golden digests (%v); run UPDATE_SEED_DIGESTS=1 go test ./internal/integration -run TestSeedDigest", err)
		}
		if err := json.Unmarshal(data, &golden); err != nil {
			t.Fatal(err)
		}
	}

	got := make(map[string]string)
	for _, c := range digestCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			first, err := core.Run(digestConfig(c))
			if err != nil {
				t.Fatal(err)
			}
			second, err := core.Run(digestConfig(c))
			if err != nil {
				t.Fatal(err)
			}
			d1, d2 := resultsDigest(t, first), resultsDigest(t, second)
			if d1 != d2 {
				t.Errorf("same seed diverged across two runs: %s vs %s\nrepro: %s (run it twice and diff)",
					d1, d2, reproCommand(c))
				return
			}
			got[c.name] = d1
			if update {
				return
			}
			want, ok := golden[c.name]
			if !ok {
				t.Errorf("no golden digest for %q; regenerate with UPDATE_SEED_DIGESTS=1", c.name)
				return
			}
			if d1 != want {
				t.Errorf("digest changed:\n  got  %s\n  want %s\nbehavior differs from the committed baseline."+
					"\nrepro: %s\nIf the change is intended, regenerate with: UPDATE_SEED_DIGESTS=1 go test ./internal/integration -run TestSeedDigest",
					d1, want, reproCommand(c))
			}
		})
	}

	if update && !t.Failed() {
		// encoding/json writes map keys in sorted order, so the golden
		// file is itself deterministic.
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(digestGoldenFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestGoldenFile, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d digests to %s", len(got), digestGoldenFile)
	}
}

// TestHybridDeliveryRepeatable runs a hybrid-delivery simulation whose
// broadcast-disk reshuffles drop several awaited items at once twice, and
// requires equal Results: the dropped waiters fall back to pulling in one
// fixed order. Repro: go run ./cmd/grococa-sim -scheme sc -delivery hybrid
// -bcasthot 100 -bcastbw 200 -bcastreshuffle 2s -clients 60 -warmup 20
// -requests 60 -seed 3 (run it twice and diff).
func TestHybridDeliveryRepeatable(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario simulations in -short mode")
	}
	cfg := core.DefaultConfig()
	cfg.Scheme = core.SchemeSC
	cfg.Delivery = core.DeliveryHybrid
	cfg.BroadcastHotItems = 100
	cfg.BroadcastKbps = 200
	cfg.BroadcastReshuffle = 2 * time.Second
	cfg.NumClients = 60
	cfg.WarmupRequests = 20
	cfg.MeasuredRequests = 60
	cfg.Seed = 3
	var digests [2]string
	for i := range digests {
		r, err := core.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		digests[i] = resultsDigest(t, r)
	}
	if digests[0] != digests[1] {
		t.Errorf("same seed diverged across two hybrid-delivery runs: %s vs %s", digests[0], digests[1])
	}
}
