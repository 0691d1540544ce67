package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/pprof"
)

// cpuProfile is a running runtime/pprof CPU profile held in memory.
type cpuProfile struct{ buf bytes.Buffer }

// startCPUProfile starts sampling call stacks at the runtime's default
// rate (100 Hz).
func startCPUProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("start cpu profile: %w", err)
	}
	return p, nil
}

// stop ends sampling and charges every sample's CPU time to a layer. It
// returns seconds per layer and the number of samples.
func (p *cpuProfile) stop() (map[string]float64, int64, error) {
	pprof.StopCPUProfile()
	return layerCPU(p.buf.Bytes())
}

// layerCPU decodes a gzipped profile.proto CPU profile and sums each
// sample's CPU nanoseconds into the layer its stack is attributed to.
func layerCPU(gz []byte) (map[string]float64, int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	prof, err := decodeProfile(raw)
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	out := make(map[string]float64)
	var samples int64
	for _, s := range prof.samples {
		// A CPU profile's values are (sample count, CPU nanoseconds).
		if len(s.values) < 2 {
			return nil, 0, errors.New("cpu profile: sample without a cpu value")
		}
		samples += s.values[0]
		var stack []string
		for _, id := range s.locations {
			for _, fn := range prof.locations[id] {
				stack = append(stack, prof.functions[fn])
			}
		}
		out[attribute(stack)] += float64(s.values[1]) / 1e9
	}
	return out, samples, nil
}

// heapSample is one allocation stack's cumulative sampled counts.
type heapSample struct{ objects, bytes int64 }

// heapSnapshot reads the cumulative allocation profile, keyed by stack.
// Callers run two GCs first so that the profile, which lags the last
// completed cycle, covers every allocation made before the call.
func heapSnapshot() map[[32]uintptr]heapSample {
	var recs []runtime.MemProfileRecord
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			break
		}
	}
	out := make(map[[32]uintptr]heapSample, n)
	for _, r := range recs[:n] {
		s := out[r.Stack0]
		s.objects += r.AllocObjects
		s.bytes += r.AllocBytes
		out[r.Stack0] = s
	}
	return out
}

// layerAlloc charges the bytes allocated between two heap snapshots to
// layers, scaling each stack's samples as pprof's alloc_space does.
func layerAlloc(before, after map[[32]uintptr]heapSample, rate int) map[string]float64 {
	out := make(map[string]float64)
	for key, a := range after {
		b := before[key]
		objects, size := a.objects-b.objects, a.bytes-b.bytes
		if objects <= 0 || size <= 0 {
			continue
		}
		out[attribute(stackNames(key))] += scaledBytes(objects, size, rate)
	}
	return out
}

// scaledBytes undoes the runtime's allocation sampling, which records each
// allocation with probability 1-exp(-size/rate).
func scaledBytes(objects, size int64, rate int) float64 {
	if rate <= 1 {
		return float64(size)
	}
	avg := float64(size) / float64(objects)
	return float64(size) / (1 - math.Exp(-avg/float64(rate)))
}

// stackNames symbolizes a recorded stack, inlined frames included,
// innermost first.
func stackNames(key [32]uintptr) []string {
	pcs := key[:]
	for i, pc := range pcs {
		if pc == 0 {
			pcs = pcs[:i]
			break
		}
	}
	var names []string
	frames := runtime.CallersFrames(pcs)
	for {
		f, more := frames.Next()
		names = append(names, f.Function)
		if !more {
			return names
		}
	}
}
