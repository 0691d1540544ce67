// Package core is the public entry point of the reproduction: it assembles
// the full simulated system of the paper — mobile support station, shared
// wireless channels, motion groups of mobile hosts, workload, and one of
// the registered caching schemes (the paper's SC, COCA and GroCoca, plus
// the extension schemes in internal/strategy) — runs it to completion, and
// reports the metrics the paper's figures plot. Its Config, DefaultConfig
// and the scheme, delivery and mobility selectors alias the one parameter
// set declared in internal/client.
package core

import (
	"fmt"
	"strings"

	"repro/internal/client"
	"repro/internal/strategy"
)

// Scheme aliases the client scheme selector for the public API.
type Scheme = client.Scheme

// Re-exported scheme constants.
const (
	SchemeSC      = client.SchemeSC
	SchemeCOCA    = client.SchemeCOCA
	SchemeGroCoca = client.SchemeGroCoca
)

// Schemes enumerates every registered scheme in stable (ID) order — the
// paper's trio first, then the extension schemes.
func Schemes() []Scheme {
	return strategy.IDs()
}

// SchemeFlags enumerates the command-line spellings of the registered
// schemes, in the same order as Schemes.
func SchemeFlags() []string {
	return strategy.Flags()
}

// ParseScheme resolves a command-line scheme spelling (e.g. "grococa")
// against the registry.
func ParseScheme(flag string) (Scheme, error) {
	if sch, ok := strategy.ByFlag(strings.ToLower(flag)); ok {
		return sch.ID(), nil
	}
	return 0, fmt.Errorf("core: unknown scheme %q (want one of %s)",
		flag, strings.Join(strategy.Flags(), ", "))
}

// MobilityModel aliases the client mobility selector for the public API.
type MobilityModel = client.MobilityModel

// Re-exported mobility model constants.
const (
	MobilityWaypoint  = client.MobilityWaypoint
	MobilityManhattan = client.MobilityManhattan
)

// DeliveryModel aliases the client delivery selector for the public API.
type DeliveryModel = client.DeliveryModel

// Re-exported delivery model constants.
const (
	DeliveryPull   = client.DeliveryPull
	DeliveryPush   = client.DeliveryPush
	DeliveryHybrid = client.DeliveryHybrid
)

// Config is the full simulation parameter set (Table II of the paper plus
// the ablation switches). It aliases client.Config, where the parameters
// are declared, defaulted and validated once.
type Config = client.Config

// DefaultConfig returns the Table II defaults; see client.DefaultConfig.
func DefaultConfig() Config { return client.DefaultConfig() }
