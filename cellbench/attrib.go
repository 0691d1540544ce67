package main

import (
	"slices"
	"strings"
)

// repoPrefix is the import-path prefix of the simulator's modules.
const repoPrefix = "repro/internal/"

// Layer names. Every module on a cell's path is a layer of its own, except
// network, which splits into the P2P medium and the MSS link by receiver.
const (
	layerMedium  = "network.medium"
	layerLink    = "network.link"
	layerRuntime = "runtime"
	layerOther   = "other"
)

// layers lists, in report order, every layer a sample can be charged to.
// A repo module missing from this list (one that is off a cell's path) is
// charged to "other".
var layers = []string{
	"sim", layerMedium, layerLink, "geo", "mobility", "bloom", "cache",
	"client", "ndp", "server", "workload", "stats", "strategy",
	"resilience", "core", layerRuntime, layerOther,
}

// attribute charges a stack, given as function names from the innermost
// frame outwards, to a layer. The innermost repo frame wins, so a closure
// the kernel calls is charged to the package that defined it and a
// standard-library call is charged to its repo caller. A network frame goes
// to the link when, walking outwards through the consecutive network frames
// from it, a (*ServerLink) method comes before any (*Medium) method, and to
// the medium otherwise. Stacks with no repo frame (GC, scheduler, the
// benchmark itself) go to runtime.
func attribute(stack []string) string {
	for i, fn := range stack {
		module, _, ok := repoFunc(fn)
		if !ok {
			continue
		}
		if module != "network" {
			if !slices.Contains(layers, module) {
				return layerOther
			}
			return module
		}
		for _, outer := range stack[i:] {
			m, r, ok := repoFunc(outer)
			if !ok || m != "network" {
				break
			}
			if hasReceiver(r, "ServerLink") {
				return layerLink
			}
			if hasReceiver(r, "Medium") {
				return layerMedium
			}
		}
		return layerMedium
	}
	return layerRuntime
}

// repoFunc splits a function name such as
// "repro/internal/network.(*Medium).Send.func1" into its module
// ("network") and the name inside its package ("(*Medium).Send.func1").
func repoFunc(fn string) (module, rest string, ok bool) {
	if !strings.HasPrefix(fn, repoPrefix) {
		return "", "", false
	}
	// The repo's import paths hold no dots, so the package path ends at
	// the first one; the module is the path's first element. (Searching
	// from the last slash instead would misread generic shapes such as
	// "[go.shape.*repro/internal/sim.event]".)
	pkg, rest, ok := strings.Cut(fn[len(repoPrefix):], ".")
	if !ok {
		return "", "", false
	}
	module, _, _ = strings.Cut(pkg, "/")
	return module, rest, true
}

// hasReceiver reports whether a package-local function name is a method,
// or a closure inside a method, of the named type.
func hasReceiver(rest, typ string) bool {
	return strings.HasPrefix(rest, "(*"+typ+")") || strings.HasPrefix(rest, typ+".")
}
