package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
)

// cell is one measured batch of a workload's simulations. Its costs are
// sums over the batch, except LiveHeapMB, which is their mean.
type cell struct {
	// CPUS is the process CPU time (user+sys, every thread) from each
	// built Simulation to Run's return.
	CPUS  float64 `json:"cpu_s"`
	WallS float64 `json:"wall_s"`
	// StealS is the machine's steal time over the runs, or -1 when
	// /proc/stat is unreadable.
	StealS     float64 `json:"steal_s"`
	AllocMB    float64 `json:"alloc_mb"`
	MallocsK   float64 `json:"mallocs_k"`
	LiveHeapMB float64 `json:"live_heap_mb"`
	// SetupS is the CPU time of each simulation's core.New.
	SetupS []float64 `json:"setup_s"`
	Traced bool      `json:"traced"`
	// Digests hold each simulation's Results digest.
	Digests  []string `json:"results_digests"`
	Problems []string `json:"problems,omitempty"`

	results []core.Results
	// Sums of the MSS's counters (Simulation.MSS().Stats()).
	serverRequests, serverValidations, locationUpdates uint64
	// Per-layer CPU seconds and allocated bytes of a traced cell.
	layerCPU   map[string]float64
	layerAlloc map[string]float64
	samples    int64
}

// build assembles a simulation and returns the CPU seconds core.New took.
func build(cfg core.Config, tr *tracer, parent int) (*core.Simulation, float64, error) {
	id := tr.begin("core.setup", parent)
	cpu0 := cpuSeconds()
	s, err := core.New(cfg)
	cpu := cpuSeconds() - cpu0
	tr.end(id)
	if err != nil {
		return nil, 0, fmt.Errorf("core.New: %w", err)
	}
	return s, cpu, nil
}

// runCell builds and runs each of a cell's simulations in turn. A traced
// cell also samples call stacks and allocations during each Run and
// charges them to layers.
func runCell(cfgs []core.Config, tr *tracer, parent int, traced bool) (cell, error) {
	c := cell{Traced: traced}
	if traced {
		c.layerCPU, c.layerAlloc = map[string]float64{}, map[string]float64{}
	}
	for _, cfg := range cfgs {
		if err := c.runSim(cfg, tr, parent); err != nil {
			return c, fmt.Errorf("seed %d: %w", cfg.Seed, err)
		}
	}
	c.LiveHeapMB /= float64(len(cfgs))
	return c, nil
}

// runSim builds and runs one simulation and adds its costs to the cell.
func (c *cell) runSim(cfg core.Config, tr *tracer, parent int) error {
	runtime.GC()
	s, setup, err := build(cfg, tr, parent)
	if err != nil {
		return err
	}
	c.SetupS = append(c.SetupS, setup)

	runtime.GC()
	var heap0 map[[32]uintptr]heapSample
	if c.Traced {
		// The allocation profile lags the last completed GC cycle.
		runtime.GC()
		heap0 = heapSnapshot()
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	steal0 := stealSeconds()
	wall0 := time.Now()
	var prof *cpuProfile
	if c.Traced {
		if prof, err = startCPUProfile(); err != nil {
			return err
		}
	}
	cpu0 := cpuSeconds()

	id := tr.begin("core.run", parent)
	res, runErr := s.Run()
	tr.end(id)

	c.CPUS += cpuSeconds() - cpu0
	c.WallS += time.Since(wall0).Seconds()
	if steal1 := stealSeconds(); steal0 >= 0 && steal1 >= 0 && c.StealS >= 0 {
		c.StealS += steal1 - steal0
	} else {
		c.StealS = -1
	}
	runtime.ReadMemStats(&m1)
	if c.Traced {
		layerCPU, samples, err := prof.stop()
		if err != nil {
			return err
		}
		addTo(c.layerCPU, layerCPU)
		c.samples += samples
	}
	if runErr != nil {
		return fmt.Errorf("Simulation.Run: %w", runErr)
	}
	c.AllocMB += float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6
	c.MallocsK += float64(m1.Mallocs-m0.Mallocs) / 1e3

	runtime.GC()
	var m2 runtime.MemStats
	runtime.ReadMemStats(&m2)
	c.LiveHeapMB += float64(m2.HeapAlloc) / 1e6
	requests, validations, _, locUpdates := s.MSS().Stats()
	c.serverRequests += requests
	c.serverValidations += validations
	c.locationUpdates += locUpdates
	runtime.KeepAlive(s)
	if c.Traced {
		runtime.GC()
		runtime.GC()
		addTo(c.layerAlloc, layerAlloc(heap0, heapSnapshot(), runtime.MemProfileRate))
	}

	digest, err := jsonDigest(res)
	if err != nil {
		return fmt.Errorf("results digest: %w", err)
	}
	c.results = append(c.results, res)
	c.Digests = append(c.Digests, digest)
	for _, p := range checkResults(res) {
		c.Problems = append(c.Problems, fmt.Sprintf("seed %d: %s", cfg.Seed, p))
	}
	return nil
}

// addTo adds every value of src to dst.
func addTo(dst, src map[string]float64) {
	for k, v := range src {
		dst[k] += v
	}
}

// checkResults returns what is wrong with a cell's output, if anything.
func checkResults(r core.Results) []string {
	var problems []string
	if !r.Completed {
		problems = append(problems, "the safety horizon expired before every host finished")
	}
	if n := r.Faults.OutstandingRequests; n != 0 {
		problems = append(problems, fmt.Sprintf("%d hosts still hold an in-flight request", n))
	}
	if r.Requests == 0 {
		problems = append(problems, "no measured requests")
	}
	sum := r.LocalHitRatio + r.GlobalHitRatio + r.ServerRequestRatio + r.FailureRatio
	if math.Abs(sum-1) > 1e-9 {
		problems = append(problems, fmt.Sprintf("outcome ratios sum to %v, not 1", sum))
	}
	return problems
}

// cpuSeconds is the process's user+sys CPU time over all threads.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // cannot fail for RUSAGE_SELF
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// userHz is the kernel's USER_HZ, the unit of /proc/stat times.
const userHz = 100

// stealSeconds reads the machine's cumulative steal time from /proc/stat,
// or returns -1 when it is unavailable.
func stealSeconds() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return -1
	}
	line, _, _ := strings.Cut(string(data), "\n")
	// cpu user nice system idle iowait irq softirq steal ...
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return -1
	}
	ticks, err := strconv.ParseUint(fields[8], 10, 64)
	if err != nil {
		return -1
	}
	return float64(ticks) / userHz
}
