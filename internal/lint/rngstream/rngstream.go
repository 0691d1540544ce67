// Package rngstream forbids math/rand outside internal/sim. All
// simulation randomness must flow through the named-stream RNG in
// internal/sim/rng.go: streams derived per purpose from the root seed are
// what keep the workload identical across schemes and runs, while an
// ad-hoc rand.New (or worse, the globally seeded package-level functions)
// silently couples unrelated components to one shared consumption order.
//
// The analyzer reports every import of math/rand or math/rand/v2 — plain,
// aliased, dot, or blank — in any package whose import path does not end
// in internal/sim. The fix is to take a *sim.RNG (or a sim.RNG stream) as
// a dependency.
package rngstream

import (
	"strconv"
	"strings"

	"repro/internal/lint/analysis"
)

// Analyzer is the rngstream pass.
var Analyzer = &analysis.Analyzer{
	Name: "rngstream",
	Doc:  "forbids math/rand imports outside internal/sim; randomness must come from sim.RNG named streams",
	Run:  run,
}

// allowed reports whether pkg may import math/rand directly: only the
// internal/sim package (including its external test package), which
// implements the named-stream RNG itself.
func allowed(path string) bool {
	path = strings.TrimSuffix(path, "_test")
	return path == "internal/sim" || strings.HasSuffix(path, "/internal/sim")
}

func run(pass *analysis.Pass) error {
	if allowed(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if path != "math/rand" && path != "math/rand/v2" {
				continue
			}
			pass.Reportf(imp.Pos(), "import of %s outside internal/sim bypasses the named-stream RNG; take a *sim.RNG stream instead (see DESIGN.md \"Determinism rules\")", path)
		}
	}
	return nil
}
