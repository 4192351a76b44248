package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSON keeps BENCHMARK.json at the repository root in step
// with the workloads and metrics varbench reports.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metricDecl struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var bj struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metricDecl `json:"end_to_end"`
		PerLayer []metricDecl `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, varbench %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, varbench %q", i, w.Name, workloads[i].name)
		}
	}
	for _, c := range []struct {
		kind     string
		declared []metricDecl
		reported []metricSpec
	}{{"end_to_end", bj.EndToEnd, endToEnd}, {"per_layer", bj.PerLayer, perLayer}} {
		if len(c.declared) != len(c.reported) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, varbench reports %d", c.kind, len(c.declared), len(c.reported))
		}
		for i, d := range c.declared {
			if d.Name != c.reported[i].name || d.Unit != c.reported[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], varbench %s [%s]", c.kind, i, d.Name, d.Unit, c.reported[i].name, c.reported[i].unit)
			}
		}
	}
}
