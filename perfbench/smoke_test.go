package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"testing"
	"time"
)

// benchmarkFile is the part of BENCHMARK.json the tests read.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// smokeScale shrinks each workload's inputs so the whole pipeline, checks
// included, runs in seconds.
var smokeScale = map[string]float64{"query-static": 0.2, "ingest-live": 0.2, "cluster-live": 0.2, "paper-sweep": 0.5}

// TestDeclared requires the metric tables the benchmark reports from to
// be BENCHMARK.json's, name by name and unit by unit, and its workloads
// to be the ones the benchmark runs.
func TestDeclared(t *testing.T) {
	bf := readBenchmarkFile(t)
	same := func(kind string, got []declared, want []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) {
		if len(got) != len(want) {
			t.Errorf("%s: the benchmark declares %d metrics, BENCHMARK.json %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s %d: the benchmark declares %s in %s, BENCHMARK.json %s in %s",
					kind, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	same("end_to_end", endToEnd, bf.EndToEnd)
	same("per_layer", perLayer, bf.PerLayer)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names workload %s, which the benchmark does not run", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json names workloads %v, the benchmark runs %d", names, len(workloads))
	}
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestSmoke runs every workload at a tiny size, untraced and traced, and
// requires every answer to pass its check and every run to report every
// metric of its kind. An end-to-end metric must be positive: the
// benchmark declares none that can read 0.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	workDir = t.TempDir()
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, traced := range []bool{false, true} {
			cfg := runConfig{seed: 1, seconds: 2 * time.Second, traced: traced, scale: smokeScale[name], setups: 1, info: t.Logf}
			rep, err := workloads[name](cfg)
			if err != nil {
				t.Fatalf("%s (traced %v): %v", name, traced, err)
			}
			for _, e := range rep.checkErrs {
				t.Errorf("%s (traced %v): check failed: %s", name, traced, e)
			}
			if rep.attempted < 1 {
				t.Errorf("%s (traced %v): nothing attempted", name, traced)
			}
			if err := complete(rep, traced); err != nil {
				t.Errorf("%s (traced %v): %v", name, traced, err)
			}
			for m, v := range rep.metrics {
				if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || (!traced && v.Value <= 0) {
					t.Errorf("%s: metric %s = %v", name, m, v.Value)
				}
			}
		}
	}
}
