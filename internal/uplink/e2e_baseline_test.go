package uplink_test

import (
	"encoding/json"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestWriteE2EBenchBaseline records the end-to-end subframe baseline
// (BenchmarkSubframeE2E and the full-turbo variant) to the JSON file named
// by LTEPHY_BENCH_E2E_OUT, in the shape cmd/bench-compare reads.
// Skipped unless the variable is set; `make bench-e2e` drives it.
func TestWriteE2EBenchBaseline(t *testing.T) {
	out := os.Getenv("LTEPHY_BENCH_E2E_OUT")
	if out == "" {
		t.Skip("set LTEPHY_BENCH_E2E_OUT=<path> to record the e2e baseline")
	}
	type entry struct {
		NsPerOp     int64 `json:"ns_per_op"`
		BytesPerOp  int64 `json:"bytes_per_op"`
		AllocsPerOp int64 `json:"allocs_per_op"`
	}
	measure := func(f func(*testing.B)) entry {
		r := testing.Benchmark(f)
		return entry{r.NsPerOp(), r.AllocedBytesPerOp(), r.AllocsPerOp()}
	}
	doc := struct {
		Comment    string           `json:"comment"`
		Go         string           `json:"go"`
		CPU        string           `json:"cpu"`
		Date       string           `json:"date"`
		Benchmarks map[string]entry `json:"benchmarks"`
	}{
		Comment: "End-to-end subframe baseline (three users through the serial receiver chain). " +
			"allocs_per_op is the tracked regression metric; compare with `make bench` output.",
		Go:   runtime.Version() + " " + runtime.GOOS + "/" + runtime.GOARCH,
		CPU:  cpuModel(),
		Date: time.Now().Format("2006-01-02"),
		Benchmarks: map[string]entry{
			"BenchmarkSubframeE2E":          measure(BenchmarkSubframeE2E),
			"BenchmarkSubframeE2ETurboFull": measure(BenchmarkSubframeE2ETurboFull),
		},
	}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s: SubframeE2E %d ns/op, %d allocs/op", out,
		doc.Benchmarks["BenchmarkSubframeE2E"].NsPerOp,
		doc.Benchmarks["BenchmarkSubframeE2E"].AllocsPerOp)
}

// cpuModel best-efforts the host CPU name (linux /proc/cpuinfo).
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return runtime.GOARCH
}
