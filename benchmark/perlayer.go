package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"ltephy/internal/uplink"
)

// Shares of -seconds the traced invocation gives each section.
const (
	shareUntraced = 0.12
	shareTraced   = 0.20
	shareReplay   = 0.10
	shareF32      = 0.06
	shareKernel   = 0.03 // each of fft, mmse, turbo, crc, codec
	sharePool     = 0.08 // each worker count
	shareObs      = 0.08
	shareWire1    = 0.06
	shareWireOpen = 0.15
)

func med(ns []int64) float64 { return median(floats(ns)) }

func mean(ns []int64) float64 {
	var sum int64
	for _, v := range ns {
		sum += v
	}
	return float64(sum) / float64(max(len(ns), 1))
}

// runPerLayer is the traced invocation: a short untraced reference, the
// stage-by-stage driver with spans, the kernel replays, the scheduler and
// telemetry ratios, and two small phases over the wire. Every section runs on
// the workload's own pool, so every per-layer metric is real on every
// workload; the ones a workload's end-to-end path never enters (fronthaul and
// sched on the in-process three) say what entering them would cost.
func runPerLayer(w *workload, o options, rep *report) error {
	pl, err := setUp(w, o)
	if err != nil {
		return err
	}
	us := func(name string, ns float64, note string) { rep.set(name, "us", usec(ns), note) }
	checked := func(what string, failed, n int) {
		rep.result.Attempted += n
		if failed > 0 {
			rep.fail(failed, "%s: %d of %d subframes differ from the golden pass", what, failed, n)
		}
	}

	// uplink: the untraced reference and the benchmark's own staged driver, in
	// short alternating chunks — the host speeds up and slows down by a tenth
	// over seconds, and the closure check compares the two.
	const chunks = 32
	var untraced passRun
	var traced stagedRun
	tr := newTracer(1 << 20)
	for c := 0; c < chunks; c++ {
		untraced.merge(runSerial(w.rc, pl, o.ns(shareUntraced/chunks), 1))
		traced.merge(runStaged(w.rc, pl, o.ns(shareTraced/chunks), tr, nil, true))
	}
	checked("untraced serial", untraced.failed, untraced.subframes)
	checked("traced", traced.failed, len(traced.sum))
	e2e := untraced.p50()
	fmt.Fprintf(rep.out, "untraced serial uplink.ProcessSubframe: mean %.1f us, median %.1f us over %d subframes\n",
		usec(mean(untraced.lat)), usec(e2e), untraced.subframes)
	replayed := runStaged(w.rc, pl, o.ns(shareReplay), tr, newReplayer(w.rc, pl, o.seed), true)
	checked("traced with replays", replayed.failed, len(replayed.sum))

	var stage [numStages]float64
	for i, name := range []string{"uplink.init_us", "uplink.chanest_us", "uplink.weights_us", "uplink.combine_despread_us", "uplink.backend_us"} {
		stage[i] = med(traced.stage[i])
		us(name, stage[i], fmt.Sprintf("%.1f%% of the stage sum", 100*stage[i]/med(traced.sum)))
	}
	closure := med(traced.sum) / e2e
	note := ""
	if closure < 0.95 || closure > 1.05 {
		note = "WARNING: outside 0.95-1.05, the stages do not add up to the subframe"
	}
	rep.set("uplink.stage_sum_over_e2e", "ratio", closure, note)
	us("uplink.subframe_p99_us", quantile(sortedCopy(untraced.lat), 0.99), latencyNote(untraced.lat))
	rep.set("uplink.ns_per_prb_layer", "ns", e2e/pl.perSubframe(pl.prbLayers), "untraced median / PRB x layers")
	rep.set("uplink.ns_per_info_bit", "ns", e2e/pl.perSubframe(pl.infoBits), "untraced median / payload bits")
	rep.set("trace.overhead_frac", "fraction", (med(traced.wall)-e2e)/e2e, "traced minus untraced subframe median")

	// Backend kernels, replayed as children of the backend span.
	var kernel [numKernels]float64
	for k := range kernel {
		kernel[k] = med(replayed.kernel[k])
	}
	us("phy.interleave.deinterleave_us", kernel[0], "synthetic symbols")
	us("phy.modulation.demap_us", kernel[1], "synthetic symbols")
	rep.set("phy.modulation.demap_ns_per_bit", "ns", kernel[1]/pl.perSubframe(pl.demapBits), "")
	us("phy.modulation.evm_us", kernel[2], "synthetic symbols")
	us("uplink.decode_tb_us", kernel[3], "rate-dematch + turbo + CRC on a copy of the job's soft bits")
	backend := med(replayed.stage[numStages-1])
	rep.set("uplink.backend_unattributed_frac", "fraction", 1-(kernel[0]+kernel[1]+kernel[2]+kernel[3])/backend, "")

	// The float32 receiver on the same pool (ROADMAP item 3's evidence).
	rc32 := w.rc
	rc32.Precision = uplink.PrecisionFloat32
	f32 := runStaged(rc32, pl, o.ns(shareF32), nil, nil, false)
	us("uplink.f32.subframe_us", med(f32.wall), fmt.Sprintf("complex128 staged %.1f us", usec(med(traced.wall))))
	for i, name := range []string{"uplink.f32.chanest_us", "uplink.f32.weights_us", "uplink.f32.combine_despread_us", "uplink.f32.backend_us"} {
		us(name, med(f32.stage[1+i]), "")
	}

	// Stand-alone kernels.
	fft := replayFFT(w.rc, pl, o.ns(shareKernel))
	us("phy.fft.transform_us", fft.nsPerSubframe, "the subframe's batched forward and inverse calls")
	rep.set("phy.fft.ns_per_point", "ns", fft.nsPerPoint, "")
	rep.set("phy.fft.bluestein_share", "fraction", fft.bluesteinShare, "transforms on lengths with a prime factor above 7")
	us("phy.linalg.mmse_solve_us", replayMMSE(w.rc, pl, o.ns(shareKernel)), "2n solves per user")
	rep.set("phy.turbo.ns_per_info_bit_halfiter", "ns", replayTurbo(w.rc.TurboIterations, o.ns(shareKernel)), "K = 6144, int8 kernel, no CRC gate")
	rep.set("phy.crc.check_ns_per_bit", "ns", replayCRC(o.ns(shareKernel)), "CRC24A over 6168 bits")
	halfIters, saved := 0.0, 0.0
	if pl.codeBlocks > 0 {
		halfIters = float64(pl.halfIters) / float64(pl.codeBlocks)
		saved = 1 - halfIters/float64(2*w.rc.TurboIterations)
	}
	rep.set("phy.turbo.half_iters_per_block", "count", halfIters, fmt.Sprintf("%d half-iterations over %d code blocks (golden pass, exact)", pl.halfIters, pl.codeBlocks))
	rep.set("phy.turbo.early_exit_frac", "fraction", saved, "share of the half-iteration cap early exit left unspent")
	rep.set("cost.share_err_max", "fraction", costShareError(w.rc, pl, [4]float64{stage[1], stage[2], stage[3], stage[4]}),
		"internal/cost share minus measured share, largest of chanest/weights/data/backend")

	// sched: the same pool through Pool.ProcessSubframe. Each worker count is
	// set against a serial pass taken just before it — no pool alive, whose
	// idle workers spin — so both sides of a ratio see the same host.
	poolP50 := map[int]float64{} // by worker count
	ratio := map[int]float64{}
	var nprocCounts schedCounts
	for _, workers := range []int{1, wireWorkers(), runtime.NumCPU()} {
		if _, done := poolP50[workers]; done {
			continue
		}
		serial := runSerial(w.rc, pl, o.ns(sharePool/2), 1)
		checked("serial reference", serial.failed, serial.subframes)
		cp, err := newCheckedPool(w.rc, pl, workers)
		if err != nil {
			return err
		}
		cp.run(pl, o.ns(sharePool/4), 1) // arenas to high water
		before, start := poolStats(cp.Pool), now()
		run := cp.run(pl, o.ns(sharePool), 1)
		if workers == runtime.NumCPU() {
			nprocCounts = schedDelta(before, poolStats(cp.Pool), workers, now()-start, run.subframes)
		}
		if workers == 1 {
			rep.set("obs.overhead_frac", "fraction", obsOverhead(cp, pl, o.ns(shareObs)), "1-worker pool, sampling 1 against 0; budget 0.05")
		}
		cp.Close()
		checked(fmt.Sprintf("pool with %d worker(s)", workers), run.failed, run.subframes)
		poolP50[workers] = run.p50()
		ratio[workers] = poolP50[workers] / serial.p50()
	}
	rep.set("sched.pool1_over_serial", "ratio", ratio[1], "dispatch overhead")
	rep.set("sched.speedup_nproc", "ratio", 1/ratio[runtime.NumCPU()], fmt.Sprintf("%d workers", runtime.NumCPU()))

	// fronthaul: the codec and admission off line, then over the socket.
	codec := replayCodec(w.rc, pl, wireWorkers(), o.ns(shareKernel), tr)
	if codec.failed > 0 {
		rep.fail(codec.failed, "frame codec replay: %d frames did not survive encode, decode and admission", codec.failed)
	}
	rep.set("fronthaul.frame_bytes", "B", codec.frameBytes, "")
	us("fronthaul.encode_frame_us", codec.encodeNs, "AppendFrame")
	us("fronthaul.decode_frame_us", codec.decodeNs, "ParseHeader + VerifyPayload + ParseUsers")
	us("fronthaul.admission_decide_us", codec.admissionNs, "EstimateUser per user + Admission.Decide")

	warm := o.ns(shareWire1 / 2)
	one := runWire(w, pl, wirePhase{workers: wireWorkers(), conns: 1, window: 1, warm: warm, dur: o.ns(shareWire1), slices: 1})
	if one.err != nil {
		return one.err
	}
	checked("wire, closed loop", one.failed, one.frames)
	rate := wirePhaseBRate
	if !w.wire || o.poolDiv > 1 {
		// Half of what the window-1 loop just sustained on this pool's
		// subframes: a rate the server is sure to keep up with.
		rate = 0.5 * 1e9 / med(one.lat)
	}
	open := runWire(w, pl, wirePhase{workers: wireWorkers(), conns: wireConns(), rate: rate, warm: warm, dur: o.ns(shareWireOpen), slices: 1, tr: tr})
	if open.err != nil {
		return open.err
	}
	checked("wire, open loop", open.failed, open.frames)
	us("fronthaul.wire_overhead_us", med(one.lat)-poolP50[wireWorkers()], "closed loop window 1 minus Pool.ProcessSubframe, same workers")
	sorted := sortedCopy(open.lat)
	us("fronthaul.ack_p90_us", quantile(sorted, 0.90), fmt.Sprintf("open loop %.0f sf/s from due time; %s", rate, latencyNote(open.lat)))
	us("fronthaul.ack_p99_us", quantile(sorted, 0.99), "")
	us("fronthaul.gen_lateness_p99_us", checkLateness(rep, o, open.lateness, rate), "send start minus due time")
	var late, overload, backpressure, met, missed int64
	for _, st := range open.stats {
		late, overload, backpressure = late+st.FramesShedLate, overload+st.FramesShedOverload, backpressure+st.FramesShedBackpressure
		met, missed = met+st.DeadlineMet, missed+st.DeadlineMissed
	}
	rep.set("fronthaul.shed_late", "count", float64(late), "")
	rep.set("fronthaul.shed_overload", "count", float64(overload), "")
	rep.set("fronthaul.shed_backpressure", "count", float64(backpressure), "")
	rep.set("fronthaul.deadline_missed_frac", "fraction", float64(missed)/float64(max(met+missed, 1)), "dispatch to completion against the 5 ms budget")
	rep.set("fronthaul.corrupt_frames", "count", float64(open.corrupt+one.corrupt), "")

	// sched counts: where the workload is served over the wire they come from
	// the server's pool during the open-loop phase, else from the nproc pool.
	counts := nprocCounts
	if w.wire {
		counts = open.sched
	}
	rep.set("sched.busy_frac", "fraction", counts.busyFrac, "")
	rep.set("sched.tasks_per_subframe", "count", counts.tasksPerSubframe, "")
	rep.set("sched.steals_per_subframe", "count", counts.stealsPerSubframe, "")
	rep.set("sched.failed_steal_frac", "fraction", counts.failedStealFrac, "failed steal sweeps / all sweeps")

	if err := os.MkdirAll(outDir(), 0o755); err != nil {
		return err
	}
	path := filepath.Join(outDir(), "trace-"+w.name+".json")
	if err := tr.writeChrome(path); err != nil {
		return err
	}
	fmt.Fprintf(rep.out, "wrote %d spans to %s\n", tr.recorded(), path)
	return nil
}
