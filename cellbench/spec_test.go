package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
)

// benchmarkFile is the part of the repository's BENCHMARK.json the
// benchmark must agree with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

type declared struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// specFile is cellbench/spec.json.
type specFile struct {
	HeldoutSeed int64 `json:"heldout_seed"`
	Workloads   map[string]struct {
		Batch     int      `json:"simulations_per_cell"`
		Overrides []string `json:"overrides"`
	} `json:"workloads"`
	Layers []struct {
		Metrics    []string `json:"metrics"`
		Moves      []string `json:"moves"`
		MostlyOn   []string `json:"mostly_on"`
		NoChangeOn []string `json:"no_change_on"`
	} `json:"layers"`
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

func units(ds []declared) map[string]string {
	m := map[string]string{}
	for _, d := range ds {
		m[d.Name] = d.Unit
	}
	return m
}

func TestSpecMatchesWorkloadsAndMetrics(t *testing.T) {
	var bench benchmarkFile
	readJSON(t, "../BENCHMARK.json", &bench)
	var spec specFile
	readJSON(t, "spec.json", &spec)

	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
		got := overrides(w.config(1))
		if want := spec.Workloads[w.name].Overrides; !reflect.DeepEqual(got, want) && !(len(got) == 0 && len(want) == 0) {
			t.Errorf("%s: spec.json overrides %q, the workload sets %q", w.name, want, got)
		}
		if want := spec.Workloads[w.name].Batch; w.batch != want || want < 1 {
			t.Errorf("%s: spec.json says %d simulations per cell, the workload runs %d", w.name, want, w.batch)
		}
	}
	if !reflect.DeepEqual(names, ours) {
		t.Errorf("BENCHMARK.json workloads %v, cellbench runs %v", names, ours)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("spec.json describes %d workloads, cellbench runs %d", len(spec.Workloads), len(workloads))
	}
	if spec.HeldoutSeed == core.DefaultConfig().Seed {
		t.Errorf("held-out seed %d is the default seed", spec.HeldoutSeed)
	}

	e2e, layer := units(bench.EndToEnd), units(bench.PerLayer)
	for i, row := range spec.Layers {
		for _, m := range row.Metrics {
			if _, ok := layer[m]; !ok {
				t.Errorf("layer row %d: %q is not a per_layer metric", i, m)
			}
		}
		for _, m := range row.Moves {
			if _, ok := e2e[m]; !ok {
				if _, ok := layer[m]; !ok {
					t.Errorf("layer row %d: moves undeclared metric %q", i, m)
				}
			}
		}
		for _, w := range append(append([]string(nil), row.MostlyOn...), row.NoChangeOn...) {
			if _, err := findWorkload(workloads, w); err != nil {
				t.Errorf("layer row %d: %v", i, err)
			}
		}
	}
}

// tinyWorkloads shrinks every workload to a cell of a few milliseconds.
func tinyWorkloads() []workload {
	var out []workload
	for _, w := range workloads {
		full := w.config
		out = append(out, workload{name: w.name, batch: w.batch, config: func(seed int64) core.Config {
			cfg := full(seed)
			cfg.NumClients = 12
			cfg.NData = 600
			cfg.AccessRange = 100
			cfg.CacheSize = 25
			cfg.WarmupRequests = 15
			cfg.MeasuredRequests = 25
			return cfg
		}})
	}
	return out
}

// TestTinyRun runs the whole command on tiny cells, traced and untraced,
// and checks every result line against the contract and BENCHMARK.json.
func TestTinyRun(t *testing.T) {
	var bench benchmarkFile
	readJSON(t, "../BENCHMARK.json", &bench)
	for _, trace := range []string{"0", "1"} {
		want := units(bench.EndToEnd)
		if trace == "1" {
			want = units(bench.PerLayer)
		}
		out := t.TempDir()
		var stdout bytes.Buffer
		args := []string{"--workload", "all", "--seed", "3", "--seconds", "1", "--trace", trace, "--out", out}
		if err := run(args, tinyWorkloads(), &stdout); err != nil {
			t.Fatalf("trace %s: %v", trace, err)
		}
		lines := 0
		sc := bufio.NewScanner(&stdout)
		for sc.Scan() {
			if !strings.HasPrefix(sc.Text(), "{") {
				continue
			}
			lines++
			var res map[string]json.RawMessage
			if err := json.Unmarshal(sc.Bytes(), &res); err != nil {
				t.Fatalf("trace %s: result line: %v", trace, err)
			}
			var keys []string
			for k := range res {
				keys = append(keys, k)
			}
			if len(keys) != 4 || res["correct"] == nil || res["attempted"] == nil || res["failed"] == nil || res["metrics"] == nil {
				t.Errorf("trace %s: result keys %v", trace, keys)
			}
			var body struct {
				Correct   bool              `json:"correct"`
				Attempted int               `json:"attempted"`
				Failed    int               `json:"failed"`
				Metrics   map[string]metric `json:"metrics"`
			}
			if err := json.Unmarshal(sc.Bytes(), &body); err != nil {
				t.Fatal(err)
			}
			if !body.Correct || body.Failed != 0 || body.Attempted < minCells {
				t.Errorf("trace %s: correct=%v attempted=%d failed=%d", trace, body.Correct, body.Attempted, body.Failed)
			}
			got := map[string]string{}
			for name, m := range body.Metrics {
				got[name] = m.Unit
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("trace %s: printed metrics %v, BENCHMARK.json declares %v", trace, got, want)
			}
		}
		if lines != len(workloads) {
			t.Errorf("trace %s: %d result lines, want %d", trace, lines, len(workloads))
		}
		if _, err := os.Stat(out + "/all-seed3-trace" + trace + ".json"); err != nil {
			t.Errorf("trace %s: run record: %v", trace, err)
		}
	}
}

func TestParseOptionsRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"--workload", "paper", "--trace", "2"},
		{"--workload", "paper", "--seconds", "0"},
		{"--workload", "paper", "extra"},
	} {
		if _, err := parseOptions(args); err == nil {
			t.Errorf("parseOptions(%q) accepted bad flags", args)
		}
	}
	if err := run([]string{"--workload", "nope"}, workloads, &bytes.Buffer{}); err == nil {
		t.Error("run accepted an unknown workload")
	}
}
