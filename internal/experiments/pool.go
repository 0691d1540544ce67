package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"runtime"
	"sync"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/sim"
)

// This file is the parallel replicated sweep engine. Every (value, scheme,
// replication) cell of a sweep runs in its own goroutine with its own
// independent sim.Kernel; results are merged back in canonical cell order,
// so the rendered tables and CSV are byte-identical regardless of worker
// count. Replication seeds are derived deterministically from the full
// (seed, experiment, value index, scheme, replication) tuple — see
// deriveSeed — so a sweep is reproducible cell by cell without running the
// rest of it.

// deriveSeed returns the RNG seed for one replication of one sweep cell.
// Replication 0 keeps the base seed, so single-replication sweeps remain
// byte-identical with the historical sequential runner (and with every
// table in EXPERIMENTS.md); replications ≥ 1 get independent streams by
// chaining the tuple components through the SplitMix64 finalizer.
func deriveSeed(base int64, expID string, valueIdx int, scheme core.Scheme, rep int) int64 {
	if rep == 0 {
		return base
	}
	h := fnv.New64a()
	_, _ = h.Write([]byte(expID))
	x := sim.SplitMix64(uint64(base) ^ h.Sum64())
	x = sim.SplitMix64(x ^ uint64(valueIdx))
	x = sim.SplitMix64(x ^ uint64(scheme))
	x = sim.SplitMix64(x ^ uint64(rep))
	return int64(x)
}

// cellResult carries one finished replication from a worker to the
// collector.
type cellResult[T any] struct {
	cell, rep int
	res       T
	err       error
}

// PoolJournaled executes cells×reps jobs across workers goroutines and
// invokes onCell exactly once per error-free cell, in canonical cell order,
// on the calling goroutine — so progress callbacks are serialized and
// ordered no matter how jobs complete. The first error in (cell, rep) order
// is returned after all workers drain. The sweep engine instantiates it
// with core.Results; the chaos campaign runner with its audited cell
// results.
//
// When jr is non-nil, every error-free run is recorded durably under
// keyFor(cell, rep), as its encoding/json form, before the collector sees
// it. A job whose key is already journaled replays the recorded result
// instead of re-running, provided the record decodes into T and
// re-encoding the decoded value reproduces the record byte for byte.
// Because cell order, seeds, and the collector are all deterministic, a
// killed sweep resumed against the same journal produces byte-identical
// output to one that was never interrupted.
func PoolJournaled[T any](cells, reps, workers int, jr *checkpoint.Journal, keyFor func(cell, rep int) string, run func(cell, rep int) (T, error), onCell func(cell int, rs []T)) error {
	if jr != nil && keyFor != nil {
		inner := run
		run = func(cell, rep int) (T, error) {
			key := keyFor(cell, rep)
			if payload, ok := jr.Lookup(key); ok {
				var out T
				if json.Unmarshal(payload, &out) == nil {
					if again, err := json.Marshal(out); err == nil && bytes.Equal(again, payload) {
						return out, nil
					}
				}
				// A record that does not round-trip was written for
				// another shape of T under the same journal version;
				// re-run the cell and supersede it.
			}
			out, err := inner(cell, rep)
			if err != nil {
				return out, err
			}
			payload, err := json.Marshal(out)
			if err != nil {
				return out, fmt.Errorf("journal %s: %w", key, err)
			}
			if err := jr.Append(key, payload); err != nil {
				return out, err
			}
			return out, nil
		}
	}
	if cells == 0 {
		return nil
	}
	if reps < 1 {
		reps = 1
	}
	total := cells * reps
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > total {
		workers = total
	}

	jobs := make(chan [2]int)
	results := make(chan cellResult[T], workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				r, err := run(j[0], j[1])
				results <- cellResult[T]{cell: j[0], rep: j[1], res: r, err: err}
			}
		}()
	}
	go func() {
		for c := 0; c < cells; c++ {
			for r := 0; r < reps; r++ {
				jobs <- [2]int{c, r}
			}
		}
		close(jobs)
	}()

	// The calling goroutine is the single collector: per-cell buffers fill
	// in completion order, but onCell fires through a reorder window so
	// cell k is only delivered once cells 0..k-1 have been.
	perCell := make([][]T, cells)
	remaining := make([]int, cells)
	errs := make([]error, total)
	for i := range perCell {
		perCell[i] = make([]T, reps)
		remaining[i] = reps
	}
	next := 0
	for done := 0; done < total; done++ {
		cr := <-results
		errs[cr.cell*reps+cr.rep] = cr.err
		perCell[cr.cell][cr.rep] = cr.res
		remaining[cr.cell]--
		for next < cells && remaining[next] == 0 {
			failed := false
			for r := 0; r < reps; r++ {
				if errs[next*reps+r] != nil {
					failed = true
					break
				}
			}
			if !failed && onCell != nil {
				onCell(next, perCell[next])
			}
			next++
		}
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// ReplicateJournaled runs one configuration reps times — seeds derived per
// replication as in a sweep cell — across workers goroutines, as the one
// cell of a "replicate" sweep, whose Runs are the replications in order.
// With a non-nil journal, completed replications are recorded durably and
// an interrupted run resumed against the same journal re-executes only the
// missing ones.
func ReplicateJournaled(cfg core.Config, reps, workers int, jr *checkpoint.Journal) (Point, error) {
	e := Experiment{
		ID:      "replicate",
		Param:   "cell",
		Values:  []float64{0},
		Schemes: []core.Scheme{cfg.Scheme},
		Apply:   func(*core.Config, float64) {},
	}
	points, err := e.Run(Options{Base: &cfg, Replications: reps, Workers: workers, Journal: jr})
	if err != nil {
		return Point{}, err
	}
	return points[0], nil
}
