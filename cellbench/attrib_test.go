package main

import (
	"slices"
	"testing"
)

func TestAttribute(t *testing.T) {
	cases := []struct {
		name  string
		stack []string
		want  string
	}{
		{"innermost repo frame wins", []string{
			"runtime.mapaccess1_fast64",
			"repro/internal/geo.(*Grid).Upsert",
			"repro/internal/network.(*Medium).syncHost",
			"repro/internal/sim.(*Kernel).Run",
		}, "geo"},
		{"medium receiver", []string{
			"repro/internal/network.(*Medium).sweep",
			"repro/internal/client.(*Host).beacon",
		}, layerMedium},
		{"server link receiver", []string{
			"repro/internal/network.(*ServerLink).SendUp",
			"repro/internal/client.(*Host).pull",
		}, layerLink},
		{"closure inside a link method", []string{
			"repro/internal/network.(*ServerLink).SendDown.func1",
			"repro/internal/sim.(*Kernel).Run",
		}, layerLink},
		{"network helper called from the link", []string{
			"repro/internal/network.(*FaultPlan).DropUplink",
			"repro/internal/network.(*ServerLink).SendUp",
		}, layerLink},
		{"network helper called from the medium", []string{
			"repro/internal/network.(*Meter).Charge",
			"repro/internal/network.(*Medium).deliverBroadcast",
			"repro/internal/network.(*ServerLink).SendUp",
		}, layerMedium},
		{"network helper outside both receivers", []string{
			"repro/internal/network.TxTime",
			"repro/internal/client.(*Host).retrieve",
		}, layerMedium},
		{"value receiver", []string{
			"repro/internal/network.ServerLink.String",
		}, layerLink},
		{"kernel-run closure charged to its package", []string{
			"repro/internal/client.(*Host).Start.func1",
			"repro/internal/sim.(*Kernel).Run",
			"repro/internal/core.(*Simulation).Run",
		}, "client"},
		{"nested closure", []string{
			"repro/internal/core.(*Simulation).scheduleHotspotShifts.func1.1",
		}, "core"},
		{"generic shape naming another package", []string{
			"repro/internal/sim.(*heap[go.shape.*repro/internal/network.Message]).push",
		}, "sim"},
		{"sub-package charged to its module", []string{
			"repro/internal/strategy/conformance.Run",
		}, "strategy"},
		{"module off the cell path", []string{
			"repro/internal/push.(*Disk).Start",
		}, layerOther},
		{"garbage collector", []string{
			"runtime.scanobject",
			"runtime.gcDrain",
			"runtime.gcBgMarkWorker",
		}, layerRuntime},
		{"benchmark's own frames", []string{
			"runtime.GC",
			"main.runCell",
		}, layerRuntime},
		{"empty stack", nil, layerRuntime},
	}
	for _, tc := range cases {
		if got := attribute(tc.stack); got != tc.want {
			t.Errorf("%s: attribute(%q) = %q, want %q", tc.name, tc.stack, got, tc.want)
		}
		if !slices.Contains(layers, tc.want) {
			t.Errorf("%s: %q is not a declared layer", tc.name, tc.want)
		}
	}
}

func TestScaledBytesUndoesSampling(t *testing.T) {
	// One sampled 64 KiB object at a 64 KiB rate stands for 1/(1-1/e) of
	// itself; a rate of 1 records every allocation.
	if got, want := scaledBytes(1, 64<<10, 64<<10), 65536/(1-0.36787944117144233); got-want > 1e-6 || want-got > 1e-6 {
		t.Errorf("scaledBytes = %v, want %v", got, want)
	}
	if got := scaledBytes(3, 300, 1); got != 300 {
		t.Errorf("scaledBytes at rate 1 = %v, want 300", got)
	}
}

func TestDecodeProfileRejectsTruncation(t *testing.T) {
	// Field 2 (a sample) announcing ten bytes but holding one.
	if _, err := decodeProfile([]byte{2<<3 | wireBytes, 10, 0}); err == nil {
		t.Fatal("decodeProfile accepted a truncated message")
	}
}
