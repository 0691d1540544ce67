package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"reflect"
	"time"

	"repro/internal/core"
)

// workload is one simulated cell the benchmark runs repeatedly.
type workload struct {
	name string
	// batch is how many simulations one cell runs, one after another, at
	// seeds derived from the run's seed. A seed fixes random structure,
	// such as which motion groups share interests, that moves a
	// simulation's cost by up to a fifth; batching averages it out so
	// that runs at different seeds agree.
	batch int
	// config returns the configuration at a simulation seed.
	config func(seed int64) core.Config
}

// workloads are the benchmark's cells. Each simulation runs through
// core.New and Simulation.Run with closed-loop clients: a host issues its
// next request only after the previous one completes.
var workloads = []workload{
	{name: "paper", batch: 2, config: paperConfig},
	{name: "dense-churn", batch: 3, config: denseChurnConfig},
	{name: "sc-baseline", batch: 1, config: scBaselineConfig},
}

// seedStride separates the seeds of a cell's simulations, so that runs at
// nearby seeds share none.
const seedStride = 1_000_000

// cellConfigs returns the configurations one cell runs: the first at the
// run's seed, each next one seedStride further on.
func (w workload) cellConfigs(seed int64) []core.Config {
	cfgs := make([]core.Config, w.batch)
	for i := range cfgs {
		cfgs[i] = w.config(seed + int64(i)*seedStride)
	}
	return cfgs
}

// paperConfig is GroCoca at the Table II defaults.
func paperConfig(seed int64) core.Config {
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	return cfg
}

// denseChurnConfig packs the same 100 hosts into a tenth of the area, so
// about 31 peers are in range instead of about 3, and adds item updates,
// channel loss, MSS outages and host crashes.
func denseChurnConfig(seed int64) core.Config {
	cfg := paperConfig(seed)
	cfg.SpaceWidth, cfg.SpaceHeight = 316, 316
	cfg.DataUpdateRate = 5
	cfg.P2PLossProb = 0.05
	cfg.UplinkLossProb = 0.02
	cfg.DownlinkLossProb = 0.02
	cfg.ServerOutagePeriod = 120 * time.Second
	cfg.ServerOutageDuration = 10 * time.Second
	cfg.CrashMTBF = 300 * time.Second
	return cfg
}

// scBaselineConfig is SC at the Table II defaults with the measured quota
// raised until a cell costs about as much CPU as a paper cell.
func scBaselineConfig(seed int64) core.Config {
	cfg := paperConfig(seed)
	cfg.Scheme = core.SchemeSC
	cfg.MeasuredRequests = 8000
	return cfg
}

// findWorkload looks a workload up by name.
func findWorkload(ws []workload, name string) (workload, error) {
	for _, w := range ws {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(ws))
	for i, w := range ws {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v or all)", name, names)
}

// overrides lists, as "Field=value", every field in which cfg differs from
// core.DefaultConfig, the seed aside.
func overrides(cfg core.Config) []string {
	base := core.DefaultConfig()
	base.Seed = cfg.Seed
	got, want := reflect.ValueOf(cfg), reflect.ValueOf(base)
	var out []string
	for i := 0; i < got.NumField(); i++ {
		if !reflect.DeepEqual(got.Field(i).Interface(), want.Field(i).Interface()) {
			out = append(out, fmt.Sprintf("%s=%v", got.Type().Field(i).Name, got.Field(i).Interface()))
		}
	}
	return out
}

// jsonDigest hashes a value's JSON encoding (map keys sorted by
// encoding/json), the way the repository's seed-digest guard hashes
// Results.
func jsonDigest(v any) (string, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}
