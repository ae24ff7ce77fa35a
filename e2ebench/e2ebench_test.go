package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"
)

// benchmarkFile is the part of ../BENCHMARK.json the self-test checks
// against: every workload, and every metric with its unit.
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

// TestShortRun runs every workload on a small graph for a moment, untraced
// and traced, and checks that each run prints every metric named in
// BENCHMARK.json with its unit and that no op failed.
func TestShortRun(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) == 0 || len(bf.EndToEnd) == 0 || len(bf.PerLayer) == 0 {
		t.Fatal("BENCHMARK.json names no workloads or metrics")
	}
	for _, wl := range bf.Workloads {
		if !slices.Contains(workloadNames, wl.Name) {
			t.Errorf("BENCHMARK.json names workload %q, which the harness does not define", wl.Name)
		}
	}
	// Every defined workload runs, churn too, though BENCHMARK.json does
	// not gate on it.
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			cfg := config{workload: name, seed: 7, seconds: 0.6, trace: traced, nodes: 1500, setups: 1, outDir: t.TempDir()}
			var out bytes.Buffer
			res, err := run(cfg, &out)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", name, traced, res.Correct, res.Failed, res.Attempted)
			}
			want := bf.EndToEnd
			if traced {
				want = bf.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %q", name, traced, m.Name, got, m.Unit)
				}
				if !strings.Contains(out.String(), "\n"+m.Name+" ") {
					t.Errorf("%s trace=%v: %s not printed", name, traced, m.Name)
				}
			}
		}
	}
}
