package main

import (
	"encoding/json"
	"os"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// BENCHMARK.json must list exactly the names the code emits, in the same
// order, with the same units, directions and bounds.
func TestBenchmarkJSONListsExactlyWhatTheCodeEmits(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if bf.RunSeconds != runSeconds {
		t.Errorf("run_seconds = %d, code sizes rounds for %d", bf.RunSeconds, runSeconds)
	}
	if len(bf.Paths) != 1 || bf.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", bf.Paths)
	}
	if len(bf.Workloads) != len(workloadSpecs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(bf.Workloads), len(workloadSpecs))
	}
	for i, w := range workloadSpecs {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: file has %q (%q), code has %q (%q)", i, bf.Workloads[i].Name, bf.Workloads[i].Why, w.name, w.why)
		}
		if _, ok := workloadFuncs[w.name]; !ok {
			t.Errorf("workload %s has no implementation", w.name)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.name, len(w.why))
		}
	}
	check := func(kind string, file []benchMetric, code []metricSpec, bounded bool) {
		if len(file) != len(code) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in code", kind, len(file), len(code))
		}
		seen := map[string]bool{}
		for i, c := range code {
			f := file[i]
			if f.Name != c.name || f.Unit != c.unit || f.Better != c.better {
				t.Errorf("%s[%d]: file has %s/%s/%s, code has %s/%s/%s", kind, i, f.Name, f.Unit, f.Better, c.name, c.unit, c.better)
			}
			if seen[c.name] {
				t.Errorf("%s: %s listed twice", kind, c.name)
			}
			seen[c.name] = true
			switch {
			case bounded && (f.Bound == nil || *f.Bound != c.bound):
				t.Errorf("%s: bound of %s differs", kind, c.name)
			case bounded && (c.bound <= 0 || c.bound > 0.25):
				t.Errorf("%s: bound of %s is %g", kind, c.name, c.bound)
			case !bounded && f.Bound != nil:
				t.Errorf("%s: %s carries a bound", kind, c.name)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEndSpecs, true)
	check("per_layer", bf.PerLayer, perLayerSpecs, false)
	if zero := zeroLayerMetrics(); len(zero) != len(perLayerSpecs) {
		t.Errorf("per-layer names collide: %d distinct of %d", len(zero), len(perLayerSpecs))
	}
}

// A report must carry exactly its mode's metric list, or no result line.
func TestResultLineRefusesMissingAndExtraMetrics(t *testing.T) {
	rep := &report{metrics: map[string]float64{}}
	for _, s := range endToEndSpecs {
		rep.metrics[s.name] = 1
	}
	rep.tally = tally{attempted: 10}
	line, err := resultOf(rep, endToEndSpecs)
	if err != nil || !line.Correct || line.Attempted != 10 || len(line.Metrics) != len(endToEndSpecs) {
		t.Fatalf("line %+v err %v", line, err)
	}
	rep.metrics["stray"] = 1
	if _, err := resultOf(rep, endToEndSpecs); err == nil {
		t.Error("extra metric accepted")
	}
	delete(rep.metrics, "stray")
	delete(rep.metrics, "p90_ms")
	if _, err := resultOf(rep, endToEndSpecs); err == nil {
		t.Error("missing metric accepted")
	}
	rep.metrics["p90_ms"] = 1
	rep.tally.mismatch = 1
	if line, _ := resultOf(rep, endToEndSpecs); line.Correct || line.Failed != 1 {
		t.Errorf("an oracle mismatch left the run correct: %+v", line)
	}
}
