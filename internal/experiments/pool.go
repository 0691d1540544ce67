package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stats"
)

// This file is the parallel replicated sweep engine. Every (value, scheme,
// replication) cell of a sweep runs in its own goroutine with its own
// independent sim.Kernel; results are merged back in canonical cell order,
// so the rendered tables and CSV are byte-identical regardless of worker
// count. Replication seeds are derived deterministically from the full
// (seed, experiment, value index, scheme, replication) tuple — see
// deriveSeed — so a sweep is reproducible cell by cell without running the
// rest of it.

// Spread holds the across-replication sample standard deviation of each
// reported metric, in the units the renderers print (latency in ms, energy
// in J, ratios as fractions).
type Spread struct {
	LatencyMS      float64
	ServerReqRatio float64
	LocalHitRatio  float64
	GlobalHitRatio float64
	FailureRatio   float64
	EnergyPerGCH   float64
	TotalEnergyJ   float64
}

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

// aggregate folds one cell's replications into a Point: Results holds the
// replication mean, Spread the sample standard deviations (nil for a
// single run, which passes replication 0 through untouched).
func aggregate(value float64, scheme core.Scheme, rs []core.Results) Point {
	p := Point{Value: value, Scheme: scheme, Results: meanResults(rs), Reps: len(rs)}
	if len(rs) > 1 {
		p.Spread = &Spread{
			LatencyMS:      sampleStd(rs, func(r core.Results) float64 { return float64(r.MeanLatency) / float64(time.Millisecond) }),
			ServerReqRatio: sampleStd(rs, func(r core.Results) float64 { return r.ServerRequestRatio }),
			LocalHitRatio:  sampleStd(rs, func(r core.Results) float64 { return r.LocalHitRatio }),
			GlobalHitRatio: sampleStd(rs, func(r core.Results) float64 { return r.GlobalHitRatio }),
			FailureRatio:   sampleStd(rs, func(r core.Results) float64 { return r.FailureRatio }),
			EnergyPerGCH:   sampleStd(rs, func(r core.Results) float64 { return r.EnergyPerGCH }),
			TotalEnergyJ:   sampleStd(rs, func(r core.Results) float64 { return r.TotalEnergy / 1e6 }),
		}
	}
	return p
}

// sampleStd computes the sample standard deviation of one metric across
// replications.
func sampleStd(rs []core.Results, metric func(core.Results) float64) float64 {
	var w stats.Welford
	for _, r := range rs {
		w.Add(metric(r))
	}
	return w.SampleStdDev()
}

// meanResults averages the replications field by field: floats, integers
// and durations take their mean, booleans AND together (Completed is true
// only if every replication completed), strings keep the first
// replication's value, and the energy-breakdown map is averaged per
// category. A single replication passes through untouched.
func meanResults(rs []core.Results) core.Results {
	if len(rs) == 1 {
		return rs[0]
	}
	out := rs[0]
	samples := make([]reflect.Value, len(rs))
	for i := range rs {
		samples[i] = reflect.ValueOf(rs[i])
	}
	meanInto(reflect.ValueOf(&out).Elem(), samples)
	return out
}

// meanInto recursively fills dst with the field-wise mean of samples.
func meanInto(dst reflect.Value, samples []reflect.Value) {
	n := len(samples)
	switch dst.Kind() {
	case reflect.Struct:
		sub := make([]reflect.Value, n)
		for i := 0; i < dst.NumField(); i++ {
			if !dst.Field(i).CanSet() {
				continue
			}
			for j := range samples {
				sub[j] = samples[j].Field(i)
			}
			meanInto(dst.Field(i), sub)
		}
	case reflect.Float64, reflect.Float32:
		var sum float64
		for _, s := range samples {
			sum += s.Float()
		}
		dst.SetFloat(sum / float64(n))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		var sum uint64
		for _, s := range samples {
			sum += s.Uint()
		}
		dst.SetUint((sum + uint64(n)/2) / uint64(n))
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		var sum int64
		for _, s := range samples {
			sum += s.Int()
		}
		dst.SetInt((sum + int64(n)/2) / int64(n))
	case reflect.Bool:
		all := true
		for _, s := range samples {
			all = all && s.Bool()
		}
		dst.SetBool(all)
	case reflect.Map:
		// map[string]float64 (the energy breakdown): per-category mean over
		// the union of keys; replications missing a category contribute 0.
		if dst.Type().Key().Kind() != reflect.String || dst.Type().Elem().Kind() != reflect.Float64 {
			return
		}
		keySet := map[string]struct{}{}
		for _, s := range samples {
			if s.IsNil() {
				continue
			}
			for _, k := range s.MapKeys() {
				keySet[k.String()] = struct{}{}
			}
		}
		if len(keySet) == 0 {
			return
		}
		keys := make([]string, 0, len(keySet))
		for k := range keySet {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		merged := reflect.MakeMapWithSize(dst.Type(), len(keys))
		for _, k := range keys {
			var sum float64
			kv := reflect.ValueOf(k)
			for _, s := range samples {
				if s.IsNil() {
					continue
				}
				if v := s.MapIndex(kv); v.IsValid() {
					sum += v.Float()
				}
			}
			merged.SetMapIndex(kv, reflect.ValueOf(sum/float64(n)))
		}
		dst.Set(merged)
	}
}

// ReplicateJournaled runs one configuration reps times — seeds derived per
// replication as in a sweep cell — across workers goroutines, returning
// the per-replication results in replication order and the aggregated
// point (Results = mean, Spread = sample stddev). With a non-nil journal,
// completed replications are recorded durably and an interrupted run
// resumed against the same journal re-executes only the missing ones.
func ReplicateJournaled(cfg core.Config, reps, workers int, jr *checkpoint.Journal) ([]core.Results, Point, error) {
	if reps < 1 {
		reps = 1
	}
	all := make([]core.Results, reps)
	var point Point
	run := func(_, rep int) (core.Results, error) {
		c := cfg
		c.Seed = deriveSeed(cfg.Seed, "replicate", 0, cfg.Scheme, rep)
		r, err := core.Run(c)
		if err != nil {
			return core.Results{}, fmt.Errorf("replication %d (seed %d): %w", rep, c.Seed, err)
		}
		return r, nil
	}
	onCell := func(_ int, rs []core.Results) {
		copy(all, rs)
		point = aggregate(0, cfg.Scheme, rs)
	}
	keyFor := func(_, rep int) string {
		return fmt.Sprintf("done/replicate/0/%d/%d", int(cfg.Scheme), rep)
	}
	if err := PoolJournaled(1, reps, workers, jr, keyFor, run, onCell); err != nil {
		return nil, Point{}, err
	}
	return all, point, nil
}
