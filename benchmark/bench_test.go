package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"testing"
)

// spec is BENCHMARK.json as far as names and units go.
type spec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []metricSpec            `json:"end_to_end"`
	PerLayer  []metricSpec            `json:"per_layer"`
}

type metricSpec struct{ Name, Unit string }

// TestSchemaMatchesBenchmarkJSON is the smoke that keeps the program and its
// contract from drifting apart: every workload BENCHMARK.json names runs, for
// 0.15 s on a shrunken pool, untraced and traced, and emits
// exactly the metrics the file lists for that mode, each once, finite, with
// the listed unit — and nothing the file lacks.
func TestSchemaMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	if len(s.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the program has %d", len(s.Workloads), len(workloads))
	}
	for _, wl := range s.Workloads {
		for trace, want := range [][]metricSpec{s.EndToEnd, s.PerLayer} {
			o := options{workload: wl.Name, seed: defaultSeed, seconds: 0.15, trace: trace, setups: 1, poolDiv: 32}
			var out bytes.Buffer
			rep := newReport(&out)
			res, err := runInto(o, rep)
			if err != nil {
				t.Fatalf("%s trace %d: %v\n%s", wl.Name, trace, err, &out)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %d: correct %v, %d of %d failed\n%s", wl.Name, trace, res.Correct, res.Failed, res.Attempted, &out)
			}
			emitted := map[string]int{}
			for _, name := range rep.names {
				emitted[name]++
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace %d: %s is in BENCHMARK.json but was not emitted", wl.Name, trace, m.Name)
				case emitted[m.Name] != 1:
					t.Errorf("%s trace %d: %s emitted %d times", wl.Name, trace, m.Name, emitted[m.Name])
				case got.Unit != m.Unit:
					t.Errorf("%s trace %d: %s has unit %q, BENCHMARK.json says %q", wl.Name, trace, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s trace %d: %s is %v", wl.Name, trace, m.Name, got.Value)
				}
				delete(emitted, m.Name)
			}
			for name := range emitted {
				t.Errorf("%s trace %d: %s was emitted but BENCHMARK.json does not list it", wl.Name, trace, name)
			}
		}
	}
}
