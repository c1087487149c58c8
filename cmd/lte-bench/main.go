// lte-bench runs the native LTE Uplink Receiver PHY benchmark: real DSP
// kernels on real synthetic signals, scheduled by the work-stealing worker
// pool, dispatched one subframe every DELTA — the executable counterpart
// of the paper's Pthreads benchmark.
//
// Usage:
//
//	lte-bench -subframes 200 -workers 8 -delta 5ms
//	lte-bench -verify -subframes 50        # serial-vs-parallel check
//	lte-bench -serial -subframes 20        # serial reference timing
//	lte-bench -turbo full                  # real turbo decoding
//	lte-bench -fftbench                    # FFT engine microbenchmarks
//	lte-bench -loopback /tmp/enb.sock -network unix -speedup 2
//	                                       # drive an lte-enb server at 2x real time
//	lte-bench -fleet 2 -cells 4 -load 2 -migrate-at 15 -crash-at 35
//	                                       # fleet harness: supervised workers, live
//	                                       # migration and a forced crash mid-run
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"testing"
	"time"

	"ltephy/internal/cost"
	"ltephy/internal/fronthaul"
	"ltephy/internal/obs"
	"ltephy/internal/params"
	"ltephy/internal/phy/fft"
	"ltephy/internal/phy/workspace"
	"ltephy/internal/power"
	"ltephy/internal/sched"
	"ltephy/internal/uplink"
	"ltephy/internal/uplink/tx"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fail(err)
	}
}

// run parses flags and executes the benchmark; extracted from main so the
// command is testable.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("lte-bench", flag.ContinueOnError)
	fs.SetOutput(w)
	subframes := fs.Int("subframes", 200, "number of subframes to process")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0), "worker goroutines")
	delta := fs.Duration("delta", 5*time.Millisecond, "dispatch period (the paper's DELTA)")
	unpaced := fs.Bool("unpaced", false, "dispatch without pacing (obs.UnpacedClock): run the trace as fast as the pool drains")
	seed := fs.Uint64("seed", 1, "parameter model and input data seed")
	maxPRB := fs.Int("maxprb", 20, "clamp per-user PRBs (native DSP is host-speed; the paper's 200-PRB pool needs a base station)")
	napOnIdle := fs.Bool("idle-nap", false, "reactive policy: nap workers that find no work")
	turbo := fs.String("turbo", "passthrough", "turbo mode: passthrough (paper) or full")
	turboIter := fs.Int("turbo-iter", 0, "max full turbo iterations per code block (0 = receiver default); CRC-gated early stop usually finishes sooner")
	rate := fs.Float64("rate", 0, "code rate for rate-matched full-turbo mode (0 = mother rate + padding)")
	combiner := fs.String("combiner", "mmse", "antenna combiner: mmse, zf or mrc")
	precision := fs.String("precision", "float64", "receiver width: float64 (default, the oracle) or float32")
	chanest := fs.String("chanest", "windowed", "channel estimator: windowed (paper) or ls")
	scramble := fs.Bool("scramble", false, "enable Gold-sequence bit scrambling")
	noiseEst := fs.Bool("noise-est", false, "estimate noise variance at the receiver (no genie)")
	frontendPath := fs.Bool("frontend", false, "route signals through the Fig. 2 OFDM frontend")
	allocs := fs.Bool("allocs", false, "report heap allocations per subframe (runtime.MemStats deltas over the run)")
	verify := fs.Bool("verify", false, "run serial vs parallel verification instead of a timed run")
	serial := fs.Bool("serial", false, "run the serial reference instead of the pool")
	snr := fs.Float64("snr", 25, "per-subcarrier SNR in dB for the synthetic channel")
	fftBench := fs.Bool("fftbench", false, "run FFT engine microbenchmarks (single and batched-vs-looped) and exit")
	obsSampling := fs.Int("obs", 0, "telemetry sampling knob: 0 = off, N >= 1 = histograms/deadline on every event, ring capture of every Nth")
	metricsAddr := fs.String("metrics-addr", "", "serve /metrics (Prometheus), /trace (Chrome trace) and /debug/vars on this address during the run")
	traceFile := fs.String("trace", "", "write a Chrome trace_event JSON timeline of the run to this file (view in chrome://tracing or Perfetto)")
	estPair := fs.Bool("est", false, "pair a cost-model workload estimate with each period's measured activity (live Fig. 12 error tracking)")
	blerSweepRun := fs.Bool("bler-sweep", false, "run a BLER-vs-SNR campaign over -snr-grid and emit CSV+JSON curves under -out, then exit")
	snrGrid := fs.String("snr-grid", "-4,-2,0,2,6", "bler-sweep: comma-separated SNR grid in dB")
	sweepSubframes := fs.Int("sweep-subframes", 12, "bler-sweep: subframes per SNR point")
	outDir := fs.String("out", "results", "bler-sweep: artifact output directory")
	assertMonotone := fs.Bool("assert-monotone", false, "bler-sweep: fail unless BLER is monotone non-increasing in SNR and 0% at the top of the grid")
	loopback := fs.String("loopback", "", "run as a loopback load generator against an lte-enb server at this address, then exit")
	network := fs.String("network", "tcp", "loopback transport: tcp or unix")
	cells := fs.Int("cells", 1, "loopback: cells to drive (one connection each)")
	speedup := fs.Float64("speedup", 1, "loopback: real-time rate multiplier — one frame every delta/speedup per cell (0 = as fast as the transport allows)")
	genLoad := fs.Float64("load", 1, "loopback: offered-load multiplier (parameter-model draws concatenated per subframe)")
	dtxProb := fs.Float64("dtx", 0, "loopback: probability a scheduled user is DTX-flagged (absent UE, feeds the KPI Dtx counter)")
	jsonOut := fs.String("json", "", "loopback/fleet: write a machine-readable JSON run summary to this file")
	fleetProcs := fs.Int("fleet", 0, "run the fleet harness against this many supervised worker processes, then exit (0 = off)")
	enbBin := fs.String("enb-bin", "", "fleet: spawn real lte-enb processes with this binary (default: in-process workers)")
	fleetDir := fs.String("fleet-dir", "", "fleet: scratch directory for process ports files (default: a temp dir)")
	capacity := fs.Float64("capacity", 1, "fleet: per-worker admission activity budget per period")
	day := fs.Int("day", 0, "fleet: diurnal day length in subframes (0 = the run length, one day per run)")
	migrateAt := fs.Int64("migrate-at", 0, "fleet: live-migrate one cell to the next worker at this sequence (0 = off)")
	crashAt := fs.Int64("crash-at", 0, "fleet: run a checkpoint round then kill worker 0 at this sequence (0 = off)")
	assertExactlyOnce := fs.Bool("assert-exactly-once", false, "fleet: fail unless zero subframes are lost and the KPI rollup covers every offered user exactly once")
	assertShed := fs.Float64("assert-shed-within", 0, "fleet: fail unless the measured shed fraction is within this relative tolerance of the estimator's prediction (0 = off)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *fftBench {
		return runFFTBench(w)
	}

	rc := uplink.DefaultConfig()
	switch *turbo {
	case "passthrough":
	case "full":
		rc.Turbo = uplink.TurboFull
	default:
		return fmt.Errorf("unknown turbo mode %q", *turbo)
	}
	if *turboIter > 0 {
		rc.TurboIterations = *turboIter
	}
	rc.CodeRate = *rate
	switch *combiner {
	case "mmse":
	case "zf":
		rc.Combiner = uplink.CombinerZF
	case "mrc":
		rc.Combiner = uplink.CombinerMRC
	default:
		return fmt.Errorf("unknown combiner %q", *combiner)
	}
	switch *chanest {
	case "windowed":
	case "ls":
		rc.ChanEst = uplink.ChanEstLS
	default:
		return fmt.Errorf("unknown channel estimator %q", *chanest)
	}
	switch *precision {
	case "float64":
	case "float32":
		rc.Precision = uplink.PrecisionFloat32
	default:
		return fmt.Errorf("unknown precision %q", *precision)
	}
	rc.Scramble = *scramble
	rc.EstimateNoise = *noiseEst

	if *blerSweepRun {
		grid, err := parseSNRGrid(*snrGrid)
		if err != nil {
			return err
		}
		return runBLERSweep(w, rc, grid, *sweepSubframes, *maxPRB, *seed, *outDir, *assertMonotone)
	}

	if *fleetProcs > 0 {
		txCfg := tx.DefaultConfig()
		txCfg.Receiver = rc
		txCfg.SNRdB = *snr
		txCfg.ThroughFrontend = *frontendPath
		return runFleet(w, fleetRun{
			Procs:             *fleetProcs,
			Cells:             *cells,
			Subframes:         *subframes,
			Workers:           *workers,
			Delta:             *delta,
			Capacity:          *capacity,
			Load:              *genLoad,
			Day:               *day,
			DTXProb:           *dtxProb,
			Seed:              *seed,
			MaxPRB:            *maxPRB,
			TX:                txCfg,
			EnbBin:            *enbBin,
			Dir:               *fleetDir,
			MigrateAt:         *migrateAt,
			CrashAt:           *crashAt,
			AssertExactlyOnce: *assertExactlyOnce,
			AssertShedWithin:  *assertShed,
			JSONOut:           *jsonOut,
		})
	}

	if *loopback != "" {
		interval := time.Duration(0)
		if *speedup > 0 {
			interval = time.Duration(float64(*delta) / *speedup)
		}
		txCfg := tx.DefaultConfig()
		txCfg.Receiver = rc
		txCfg.SNRdB = *snr
		txCfg.ThroughFrontend = *frontendPath
		start := time.Now()
		stats, err := fronthaul.Generate(fronthaul.GenConfig{
			Resolve:   fronthaul.Addr(*network, *loopback),
			Cells:     *cells,
			Subframes: *subframes,
			Interval:  interval,
			Load:      *genLoad,
			DTXProb:   *dtxProb,
			Seed:      *seed,
			MaxPRB:    *maxPRB,
			TX:        txCfg,
		})
		elapsed := time.Since(start)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "loopback: %d cells x %d subframes in %v\n",
			*cells, *subframes, elapsed.Round(time.Millisecond))
		fmt.Fprintf(w, "loopback: %s\n", stats)
		if *jsonOut != "" {
			sum := struct {
				Mode      string             `json:"mode"`
				Cells     int                `json:"cells"`
				Subframes int                `json:"subframes"`
				Load      float64            `json:"load"`
				ElapsedNs int64              `json:"elapsed_ns"`
				Stats     fronthaul.GenStats `json:"stats"`
				P99Ns     int64              `json:"p99_ns"`
				P999Ns    int64              `json:"p999_ns"`
			}{"loopback", *cells, *subframes, *genLoad, elapsed.Nanoseconds(),
				stats, stats.P99.Nanoseconds(), stats.P999.Nanoseconds()}
			if err := writeJSON(*jsonOut, sum); err != nil {
				return err
			}
			fmt.Fprintf(w, "loopback: summary -> %s\n", *jsonOut)
		}
		return nil
	}

	dispCfg := sched.DefaultDispatcherConfig()
	dispCfg.Delta = *delta
	if *unpaced {
		dispCfg.Clock = obs.UnpacedClock{}
	}
	dispCfg.Seed = *seed
	dispCfg.TX.Receiver = rc
	dispCfg.TX.SNRdB = *snr
	dispCfg.TX.ThroughFrontend = *frontendPath

	// Record and clamp a trace: the native benchmark runs real DSP, so the
	// workload is scaled to host speeds by limiting per-user PRBs.
	model := params.NewRandom(*seed)
	trace := params.Record(model, *subframes)
	for _, users := range trace.Subframes {
		for i := range users {
			if users[i].PRB > *maxPRB {
				users[i].PRB = *maxPRB
			}
		}
	}

	poolCfg := sched.DefaultPoolConfig()
	poolCfg.Workers = *workers
	poolCfg.Receiver = rc
	poolCfg.NapOnIdle = *napOnIdle
	poolCfg.Seed = *seed

	if *verify {
		start := time.Now()
		if err := sched.Verify(poolCfg, dispCfg, trace); err != nil {
			return err
		}
		fmt.Fprintf(w, "verify: %d subframes bit-identical between serial and parallel (%v)\n",
			*subframes, time.Since(start).Round(time.Millisecond))
		return nil
	}

	disp := sched.NewDispatcher(dispCfg)
	fmt.Fprintf(w, "pregenerating input data for %d subframes...\n", *subframes)
	if err := disp.Pregenerate(trace); err != nil {
		return err
	}
	trace.Reset()

	if *serial {
		var before runtime.MemStats
		if *allocs {
			runtime.GC()
			runtime.ReadMemStats(&before)
		}
		start := time.Now()
		var results, crcOK int
		for seq := int64(0); seq < int64(*subframes); seq++ {
			sf, err := disp.Subframe(seq, trace.Next())
			if err != nil {
				return err
			}
			rs, err := uplink.ProcessSubframe(rc, sf)
			if err != nil {
				return err
			}
			for _, r := range rs {
				results++
				if r.CRCOK {
					crcOK++
				}
			}
		}
		elapsed := time.Since(start)
		fmt.Fprintf(w, "serial: %d subframes, %d users, %d CRC pass in %v (%.1f subframes/s)\n",
			*subframes, results, crcOK, elapsed.Round(time.Millisecond),
			float64(*subframes)/elapsed.Seconds())
		if *allocs {
			reportAllocs(w, before, *subframes)
		}
		return nil
	}

	col := sched.NewCollector()
	poolCfg.OnResult = col.Add
	pool, err := sched.NewPool(poolCfg)
	if err != nil {
		return err
	}

	// Telemetry: requesting a trace file or a metrics endpoint implies at
	// least sampling 1.
	sampling := *obsSampling
	if sampling == 0 && (*traceFile != "" || *metricsAddr != "") {
		sampling = 1
	}
	tel := pool.Telemetry()
	tel.SetSampling(sampling)
	if *metricsAddr != "" {
		ln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			return err
		}
		defer ln.Close()
		obs.PublishExpvar(tel)
		go func() { _ = http.Serve(ln, obs.Handler(tel, pool.WritePrometheus)) }()
		fmt.Fprintf(w, "telemetry: /metrics, /trace, /debug/vars on http://%s\n", ln.Addr())
	}

	opts := sched.RunOptions{Subframes: *subframes}
	if *estPair {
		// The estimate comes from the cost model (modelled TILEPro64
		// cycles); host DSP runs at host speed, so the estimator error
		// reported here measures model-vs-host shape mismatch, not the
		// paper's calibrated-platform error.
		cm := cost.Default()
		denom := float64(*workers) * cm.PeriodCycles(delta.Seconds())
		opts.Estimate = func(sf *uplink.Subframe) float64 {
			var cycles float64
			for _, u := range sf.Users {
				cycles += cm.UserCycles(u.Params, rc.Antennas)
			}
			return cycles / denom
		}
	}

	var memBefore runtime.MemStats
	if *allocs {
		runtime.GC()
		runtime.ReadMemStats(&memBefore)
	}
	before := pool.Stats()
	wall, err := disp.Run(pool, trace, opts)
	if err != nil {
		return err
	}
	after := pool.Stats()
	pool.Close()

	activity := sched.Activity(before, after, wall)
	var tasks, steals int64
	for i := range after {
		tasks += after[i].TasksRun - before[i].TasksRun
		steals += after[i].Steals - before[i].Steals
	}
	crcOK := 0
	for _, r := range col.Sorted() {
		if r.CRCOK {
			crcOK++
		}
	}
	fmt.Fprintf(w, "parallel: %d subframes on %d workers in %v\n", *subframes, *workers, wall.Round(time.Millisecond))
	fmt.Fprintf(w, "  results: %d users, %d CRC pass\n", col.Len(), crcOK)
	fmt.Fprintf(w, "  activity (Eq. 2): %.3f\n", activity)
	fmt.Fprintf(w, "  tasks run: %d, steals: %d\n", tasks, steals)

	// As-if power on the modelled TILEPro64, from the workers' measured
	// busy/nap fractions (host cores stand in for tiles).
	busy := make([]int64, len(after))
	nap := make([]int64, len(after))
	for i := range after {
		busy[i] = after[i].BusyNanos - before[i].BusyNanos
		nap[i] = after[i].NapNanos - before[i].NapNanos
	}
	if est, err := power.FromWorkerStats(busy, nap, wall.Nanoseconds(), power.Default()); err == nil {
		fmt.Fprintf(w, "  as-if power (%d-core model): %.2f W\n", *workers, est)
	}
	if sampling > 0 {
		printTelemetry(w, tel)
		if *traceFile != "" {
			f, err := os.Create(*traceFile)
			if err != nil {
				return err
			}
			if err := obs.WriteChromeTrace(f, tel); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Fprintf(w, "  trace: %d events -> %s (open in chrome://tracing or ui.perfetto.dev)\n",
				len(tel.Events()), *traceFile)
		}
	}
	if *allocs {
		reportAllocs(w, memBefore, *subframes)
		var arenaTotal int
		for _, f := range pool.ArenaFootprints() {
			arenaTotal += f
		}
		fmt.Fprintf(w, "  arena footprint: %.1f KiB total across %d workers\n",
			float64(arenaTotal)/1024, *workers)
	}
	return nil
}

// runFFTBench times the FFT engine natively at LTE allocation widths —
// smooth (240, 288, 600, 1200), prime-radix from 11 to 97 (132 … 1164) and
// 2388 = 12*199, which still takes Bluestein: single transforms with
// ns/point, then batched vs looped over an 8-vector grid — the shape the
// receiver's channel-estimation and despread stages batch over. The path
// label comes from the plan.
func runFFTBench(w io.Writer) error {
	rng := rand.New(rand.NewSource(1))
	ws := workspace.New()
	fmt.Fprintln(w, "FFT engine microbenchmarks (ns/op):")
	fmt.Fprintf(w, "%8s %12s %10s %14s %14s\n", "n", "single", "ns/point", "batched(x8)", "looped(x8)")
	for _, n := range []int{132, 240, 264, 276, 288, 564, 600, 1164, 1200, 2388} {
		p := fft.Get(n)
		const howMany = 8
		src := make([]complex128, howMany*n)
		for i := range src {
			src[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		dst := make([]complex128, howMany*n)
		single := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p.ForwardIn(ws, dst[:n], src[:n])
			}
		})
		batched := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p.ForwardBatch(ws, dst, src, howMany, n)
			}
		})
		looped := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for v := 0; v < howMany; v++ {
					p.ForwardIn(ws, dst[v*n:(v+1)*n], src[v*n:(v+1)*n])
				}
			}
		})
		kind := ""
		if p.Bluestein() {
			kind = "  (Bluestein)"
		}
		fmt.Fprintf(w, "%8d %12d %10.1f %14d %14d%s\n",
			n, single.NsPerOp(), float64(single.NsPerOp())/float64(n), batched.NsPerOp(), looped.NsPerOp(), kind)
	}
	return nil
}

// printTelemetry summarises the run's telemetry: per-stage latency,
// deadline accounting against the DELTA budget, and (when the -est hook
// was on) the online estimator-error statistics.
func printTelemetry(w io.Writer, tel *obs.Registry) {
	fmt.Fprintf(w, "  stage latency (sampling %d):\n", tel.Sampling())
	for s := 0; s < obs.NumStages; s++ {
		h := tel.StageHist(uint8(s))
		n := h.Count()
		if n == 0 {
			continue
		}
		mean := float64(h.SumNanos()) / float64(n)
		worst := obs.BucketUpperNanos(h.MaxBucket())
		fmt.Fprintf(w, "    %-16s %8d runs  mean %8.1f us  worst < %.1f us\n",
			obs.StageNames[s], n, mean/1e3, float64(worst)/1e3)
	}
	if th := tel.TurboHist(); th.Count() > 0 {
		fmt.Fprintf(w, "  turbo half-iterations over %d decodes: mean %.2f, histogram", th.Count(), th.Mean())
		for b := 0; b < obs.CountHistBuckets; b++ {
			if c := th.Bucket(b); c > 0 {
				fmt.Fprintf(w, "  %d:%d", b, c)
			}
		}
		fmt.Fprintln(w)
	}
	d := tel.Deadline()
	total := d.Met() + d.Missed()
	if total > 0 {
		fmt.Fprintf(w, "  deadline (budget %v): %d/%d met", time.Duration(d.Budget()), d.Met(), total)
		if d.Missed() > 0 {
			fmt.Fprintf(w, ", worst overrun %v", time.Duration(d.WorstLatenessNanos()).Round(time.Microsecond))
		}
		fmt.Fprintln(w)
	}
	if es := tel.Estimator().Stats(); es.Count > 0 {
		fmt.Fprintf(w, "  estimator error over %d periods: avg |err| %.3f, max %.3f, bias %+.3f (measured mean %.3f)\n",
			es.Count, es.AvgAbsErr, es.MaxAbsErr, es.Bias, es.MeanMeasured)
	}
}

// reportAllocs prints heap-allocation deltas per subframe since `before`.
// The first subframes pay one-time costs (FFT plans, transport formats,
// arena growth), so per-subframe figures approach the steady state only
// for longer runs.
func reportAllocs(w io.Writer, before runtime.MemStats, subframes int) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	mallocs := after.Mallocs - before.Mallocs
	bytes := after.TotalAlloc - before.TotalAlloc
	if subframes < 1 {
		fmt.Fprintf(w, "  heap allocs: %d total, %.1f KiB total\n", mallocs, float64(bytes)/1024)
		return
	}
	fmt.Fprintf(w, "  heap allocs: %d total (%.1f/subframe), %.1f KiB total (%.2f KiB/subframe)\n",
		mallocs, float64(mallocs)/float64(subframes),
		float64(bytes)/1024, float64(bytes)/1024/float64(subframes))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "lte-bench:", err)
	os.Exit(1)
}
