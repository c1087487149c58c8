// Command benchmark is this repository's one performance instrument: four
// named workloads, six end-to-end metrics and a per-layer traced run, all
// timed from outside the layers. README.md in this directory is the manual;
// BENCHMARK.json at the repository root is the contract.
//
//	go run ./benchmark -workload ref_passthrough -seed 1
//	go run ./benchmark -workload serve_wire -trace 1
//	go run ./benchmark              # every workload, one process each
//	go run ./benchmark -selfcheck   # two sets back to back, compared
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"

	"ltephy/internal/uplink"
)

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	// setups is how many times the whole set-up runs; setup_s is the median.
	setups int
	// poolDiv shrinks every pool; only the smoke test sets it.
	poolDiv int
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report collects one run's metrics and prints them by name.
type report struct {
	out    io.Writer
	result result
	names  []string
}

func newReport(out io.Writer) *report {
	return &report{out: out, result: result{Metrics: map[string]metricValue{}}}
}

// set records a metric; note is printed beside it (slice spread, sample
// count, tail) and is not part of the result line.
func (r *report) set(name, unit string, v float64, note string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.fail(1, "%s is not finite", name)
		v = 0
	}
	r.result.Metrics[name] = metricValue{v, unit}
	r.names = append(r.names, name)
	fmt.Fprintf(r.out, "%-36s %14.4f %-12s %s\n", name, v, unit, note)
}

// sliced records the median of per-slice values with their spread.
func (r *report) sliced(name, unit string, slices []float64, note string) {
	r.set(name, unit, median(slices), fmt.Sprintf("slice spread %.1f%% over %d slices; %s", 100*spread(slices), len(slices), note))
}

func (r *report) fail(n int, format string, args ...any) {
	r.result.Failed += n
	fmt.Fprintf(r.out, "FAIL: "+format+"\n", args...)
}

func (r *report) finish() result {
	r.result.Correct = r.result.Failed == 0
	r.result.Attempted = max(r.result.Attempted, 1)
	return r.result
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
			}
		}
	}
	return runtime.GOARCH
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func (o options) ns(share float64) int64 { return int64(share * o.seconds * 1e9) }

// wireWorkers leaves one core to the generator and the server's ingest.
func wireWorkers() int { return max(1, runtime.NumCPU()-1) }

func wireConns() int { return min(2, runtime.NumCPU()) }

// setUp builds the pool and warms the path the end-to-end metrics will take:
// FFT plans, DMRS, transport formats and interleavers are cached by the golden
// pass, arenas reach their high-water mark in the warm-up. Users pay none of
// this per subframe, so it is timed apart, as setup_s.
func setUp(w *workload, o options) (*pool, error) {
	pl, err := buildPool(w, o.seed, max(w.poolSize/o.poolDiv, 2))
	if err != nil {
		return nil, err
	}
	if w.wire {
		run := runWire(w, pl, wirePhase{workers: wireWorkers(), conns: wireConns(), window: 4, dur: o.ns(1.0 / 8), slices: 1})
		if run.err != nil || run.failed > 0 {
			return nil, fmt.Errorf("%s: warm-up over the wire failed (%d frames, %v)", w.name, run.failed, run.err)
		}
		return pl, nil
	}
	if run := runSerial(w.rc, pl, o.ns(1.0/8), 1); run.failed > 0 {
		return nil, fmt.Errorf("%s: %d warm-up subframes differ from the golden pass", w.name, run.failed)
	}
	return pl, nil
}

func latencyNote(lat []int64) string {
	sorted := sortedCopy(lat)
	label, tail := tailLabel(sorted)
	return fmt.Sprintf("%d samples, %s %.1f us", len(sorted), label, usec(tail))
}

// endToEnd accumulates the untraced run's rounds.
type endToEnd struct {
	setupS, p50us, tput []float64 // one per set-up, one per slice
	lat, lateness       []int64
	mallocs             uint64
	subframes, failed   int
}

func (e *endToEnd) add(lat []int64, slice []uint8, slices int) {
	e.lat = append(e.lat, lat...)
	e.p50us = append(e.p50us, scale(sliceMedians(lat, slice, slices), 1e-3)...)
}

// runEndToEnd is the untraced run: every end-to-end metric, nothing else. It
// is made of o.setups rounds, each a fresh set-up followed by its share of the
// measured seconds. A round's pool lands on other pages and, over the wire, its
// server's goroutines on other threads; on the reference box either moves a
// whole round by a few per cent, so a metric is the median over the slices of
// all rounds rather than of one lucky or unlucky placement.
func runEndToEnd(w *workload, o options, rep *report) error {
	const slices = 5 // per round; the wire splits them 2 + 2 over its phases
	var e endToEnd
	var pl *pool
	var rate float64 // serve_wire phase B
	for round := 0; round < o.setups; round++ {
		pl = nil
		runtime.GC() // the previous pool must not count towards peak_rss_mb twice
		start := now()
		var err error
		if pl, err = setUp(w, o); err != nil {
			return err
		}
		e.setupS = append(e.setupS, float64(now()-start)/1e9)
		share := 1 / float64(o.setups)
		if w.wire {
			rate = e.wireRound(w, o, pl, rep, share)
			continue
		}
		run := runSerial(w.rc, pl, o.ns(share), slices)
		e.add(run.lat, run.slice, slices)
		e.tput = append(e.tput, run.sliceTput...)
		e.mallocs, e.subframes, e.failed = e.mallocs+run.mallocs, e.subframes+run.subframes, e.failed+run.failed
	}
	rep.result.Attempted += e.subframes
	if e.failed > 0 {
		rep.fail(e.failed, "%d of %d subframes errored, went unanswered or differ from the golden pass", e.failed, e.subframes)
	}
	rep.set("setup_s", "s", median(e.setupS), fmt.Sprintf("median of %d set-ups", o.setups))
	if w.wire {
		checkLateness(rep, o, e.lateness, rate)
		rep.sliced("latency_p50_us", "us", e.p50us, fmt.Sprintf("phase B, open loop %.0f sf/s, from due time; %s", rate, latencyNote(e.lat)))
		rep.sliced("throughput_sf_per_s", "1/s", e.tput, fmt.Sprintf("phase A, closed loop, window 4 x %d connections, %d worker(s)", wireConns(), wireWorkers()))
	} else {
		rep.sliced("latency_p50_us", "us", e.p50us, latencyNote(e.lat))
		rep.sliced("throughput_sf_per_s", "1/s", e.tput, "one goroutine, back to back")
	}
	rep.set("allocs_per_subframe", "count", float64(e.mallocs)/float64(max(e.subframes, 1)), "")
	rep.set("peak_rss_mb", "MB", peakRSSMB(), "")
	bler := pl.blockErrorRate()
	rep.set("block_error_rate", "fraction", bler, fmt.Sprintf("%d of %d transport blocks", pl.blockErrs, pl.users))
	if w.rc.Turbo == uplink.TurboFull && o.seed == defaultSeed && o.poolDiv == 1 && (bler < 0.05 || bler > 0.15) {
		rep.fail(1, "%s is off its operating point: block error rate %.3f outside 0.10 +- 0.05", w.name, bler)
	}
	return nil
}

func scale(xs []float64, k float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * k
	}
	return out
}

// wireRound runs phase A (closed loop, saturation: throughput) and phase B
// (open loop: latency from due time), a fresh server each, and returns the
// rate phase B ran at: the frozen constant, so that latency compares across
// commits — except on a shrunken pool (the smoke test, possibly under the race
// detector), which is another workload and takes half of what its own phase A
// sustained.
func (e *endToEnd) wireRound(w *workload, o options, pl *pool, rep *report, share float64) float64 {
	const slices = 2
	phase := func(name string, ph wirePhase) wireRun {
		ph.workers, ph.conns, ph.slices, ph.warm = wireWorkers(), wireConns(), slices, o.ns(1.0/32)
		run := runWire(w, pl, ph)
		if run.err != nil {
			rep.fail(1, "wire phase %s: %v", name, run.err)
		}
		e.mallocs, e.subframes, e.failed = e.mallocs+run.mallocs, e.subframes+run.frames, e.failed+run.failed
		return run
	}
	a := phase("A", wirePhase{window: 4, dur: o.ns(0.4 * share)})
	e.tput = append(e.tput, a.sliceTput...)
	rate := wirePhaseBRate
	if o.poolDiv > 1 {
		rate = max(0.5*median(a.sliceTput), 1)
	}
	b := phase("B", wirePhase{rate: rate, dur: o.ns(0.6 * share)})
	e.add(b.lat, b.slice, slices)
	e.lateness = append(e.lateness, b.lateness...)
	return rate
}

// checkLateness fails an open-loop phase whose generator ran behind its
// schedule — then the numbers would measure the generator, not the server —
// and returns the p99 lateness. The gate is on the median, at a quarter of the
// period. The p99 is reported, not gated: with GOMAXPROCS = 2 the Go scheduler
// wakes the sleeping sender milliseconds late whenever the server's spinning
// worker holds the P its timer sits on, and the server's own ingest goroutines
// wait the same way. That tail is the system's, and it is inside
// latency_p50_us because latency runs from the due time.
func checkLateness(rep *report, o options, lateness []int64, rate float64) float64 {
	if len(lateness) == 0 {
		return 0 // every frame met back-pressure: overloaded, and latency says so
	}
	sorted := sortedCopy(lateness)
	period := float64(wireConns()) * 1e9 / rate
	// A shrunken pool is the smoke test, which checks names, not timing, and
	// shares the machine with the rest of go test ./...
	if late := quantile(sorted, 0.5); late > period/4 && o.poolDiv == 1 {
		rep.fail(1, "open-loop generator ran late: median %.0f us against a period of %.0f us; the phase is invalid", usec(late), usec(period))
	}
	return quantile(sorted, 0.99)
}

// runInto runs one workload in one mode and fills rep.
func runInto(o options, rep *report) (result, error) {
	w, err := findWorkload(o.workload)
	if err != nil {
		return result{}, err
	}
	if o.seconds <= 0 || o.setups < 1 || o.poolDiv < 1 || (o.trace != 0 && o.trace != 1) {
		return result{}, fmt.Errorf("bad arguments: seconds %g, trace %d", o.seconds, o.trace)
	}
	// One P per core, pinned: before Go 1.25 a container quota is ignored, and
	// the reference box has two cores.
	runtime.GOMAXPROCS(runtime.NumCPU())
	fmt.Fprintf(rep.out, "workload %s seed %d seconds %g trace %d | %s %s/%s | %s | nproc %d GOMAXPROCS %d\n",
		w.name, o.seed, o.seconds, o.trace, runtime.Version(), runtime.GOOS, runtime.GOARCH,
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0))
	if o.trace == 1 {
		err = runPerLayer(w, o, rep)
	} else {
		err = runEndToEnd(w, o, rep)
	}
	if err != nil {
		return result{}, err
	}
	return rep.finish(), nil
}

func main() {
	var o options
	fs := flag.NewFlagSet("benchmark", flag.ExitOnError)
	fs.StringVar(&o.workload, "workload", "", "ref_passthrough, ref_turbo_op, frontend_wide or serve_wire (all four when empty)")
	fs.Uint64Var(&o.seed, "seed", defaultSeed, "drives payloads, channels, noise and the parameter trace; 2 is the held-out seed")
	fs.Float64Var(&o.seconds, "seconds", 12, "measured seconds (BENCHMARK.json run_seconds)")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics and benchmark/out/trace-<workload>.json")
	selfcheck := fs.Bool("selfcheck", false, "run every workload twice and name each end-to-end metric whose two values differ by more than its bound")
	sweep := fs.Bool("sweep", false, "print the ref_turbo_op operating-point sweep and exit")
	_ = fs.Parse(os.Args[1:])
	o.setups, o.poolDiv = 3, 1

	var err error
	switch {
	case *sweep:
		err = sweepOperatingPoint(os.Stdout, o.seed)
	case *selfcheck:
		err = selfCheck(o)
	case o.workload == "":
		_, err = runAll(o)
	default:
		var res result
		if res, err = runInto(o, newReport(os.Stdout)); err == nil {
			line, _ := json.Marshal(res) // finite floats and strings only
			fmt.Printf("%s\n", line)
			if !res.Correct {
				os.Exit(1)
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
}

// runAll runs each workload in a process of its own — peak_rss_mb is a
// per-process high-water mark — and returns their result lines by name.
func runAll(o options) (map[string]result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	results := map[string]result{}
	for _, w := range workloads {
		cmd := exec.Command(self, "-workload", w.name, "-seed", fmt.Sprint(o.seed),
			"-seconds", fmt.Sprint(o.seconds), "-trace", fmt.Sprint(o.trace))
		cmd.Stderr = os.Stderr
		outBytes, err := cmd.Output()
		os.Stdout.Write(outBytes)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		lines := strings.Split(strings.TrimSpace(string(outBytes)), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			return nil, fmt.Errorf("%s: result line: %w", w.name, err)
		}
		results[w.name] = res
	}
	return results, nil
}

// benchmarkSpec is the part of BENCHMARK.json the self-check needs.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// selfCheck states the noise floor: two full sets on the same code, and every
// end-to-end metric whose second value is worse than the first by more than
// its bound is named as unresolved — a gate on it would be a coin flip.
func selfCheck(o options) error {
	var spec benchmarkSpec
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		raw, err = os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	}
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return err
	}
	o.trace = 0
	first, err := runAll(o)
	if err != nil {
		return err
	}
	second, err := runAll(o)
	if err != nil {
		return err
	}
	var unresolved []string
	names := make([]string, 0, len(first))
	for name := range first {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, wl := range names {
		for _, m := range spec.EndToEnd {
			a, b := first[wl].Metrics[m.Name].Value, second[wl].Metrics[m.Name].Value
			worse := (b - a) / a
			if m.Better == "higher" {
				worse = (a - b) / a
			}
			verdict := "agree"
			if math.Abs(worse) > m.Bound {
				verdict = "UNRESOLVED"
				unresolved = append(unresolved, wl+"/"+m.Name)
			}
			fmt.Printf("selfcheck %-16s %-22s %14.4f %14.4f %+7.2f%% (bound %.0f%%) %s\n",
				wl, m.Name, a, b, 100*worse, 100*m.Bound, verdict)
		}
	}
	if len(unresolved) > 0 {
		return fmt.Errorf("two runs of the same code disagree beyond the bound on: %s", strings.Join(unresolved, ", "))
	}
	return nil
}
