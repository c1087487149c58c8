package main

import (
	"ltephy/internal/cost"
	"ltephy/internal/fronthaul"
	"ltephy/internal/phy/crc"
	"ltephy/internal/phy/fft"
	"ltephy/internal/phy/linalg"
	"ltephy/internal/phy/turbo"
	"ltephy/internal/phy/workspace"
	"ltephy/internal/rng"
	"ltephy/internal/sched"
	"ltephy/internal/uplink"
)

// Kernel replays: each times one layer's public entry points on the shapes
// the workload's subframes have, cycling the pool for dur nanoseconds, and
// returns nanoseconds per subframe. They stand outside the receiver, so they
// price a kernel alone — warm caches, no neighbours.

// perSubframe runs body over successive pool entries until dur has passed and
// returns the mean time per entry.
func perSubframe(pl *pool, dur int64, body func(e *entry)) float64 {
	start := now()
	n := 0
	for t := start; t-start < dur; t = now() {
		body(pl.take())
		n++
	}
	return float64(now()-start) / float64(n)
}

func randomComplex(r *rng.RNG, n int) []complex128 {
	out := make([]complex128, n)
	for i := range out {
		out[i] = r.ComplexNormal(1)
	}
	return out
}

// smooth reports whether n factors into 2, 3, 5 and 7 — the lengths
// internal/phy/fft transforms directly; the rest take Bluestein.
func smooth(n int) bool {
	for _, f := range []int{2, 3, 5, 7} {
		for n%f == 0 {
			n /= f
		}
	}
	return n == 1
}

type fftReplay struct {
	nsPerSubframe, nsPerPoint, bluesteinShare float64
}

// replayFFT issues the batched transforms a subframe makes: per user and
// slot one inverse and one forward batch of antennas x layers vectors
// (channel estimation), then one inverse batch of 12 x layers (despread).
func replayFFT(rc uplink.ReceiverConfig, pl *pool, dur int64) fftReplay {
	ant := rc.Antennas
	longest := 0
	var transforms, bluestein, points float64
	for i := range pl.entries {
		for _, u := range pl.entries[i].sf.Users {
			p := u.Params
			n := p.Subcarriers()
			longest = max(longest, uplink.DataSymbolsPerSubframe*p.Layers*n)
			count := float64((2*uplink.SlotsPerSubframe*ant + uplink.DataSymbolsPerSubframe) * p.Layers)
			transforms += count
			points += count * float64(n)
			if !smooth(n) {
				bluestein += count
			}
		}
	}
	r := rng.New(1)
	src, dst := randomComplex(r, longest), make([]complex128, longest)
	ws := workspace.New()
	ns := perSubframe(pl, dur, func(e *entry) {
		for _, u := range e.sf.Users {
			n := u.Params.Subcarriers()
			plan := fft.Get(n)
			est := ant * u.Params.Layers
			for slot := 0; slot < uplink.SlotsPerSubframe; slot++ {
				plan.InverseBatch(ws, dst[:est*n], src[:est*n], est, n)
				plan.ForwardBatch(ws, dst[:est*n], src[:est*n], est, n)
			}
			data := uplink.DataSymbolsPerSubframe * u.Params.Layers
			plan.InverseBatch(ws, dst[:data*n], src[:data*n], data, n)
		}
	})
	return fftReplay{ns, ns / pl.perSubframe(int(points)), bluestein / transforms}
}

// replayMMSE runs the weight stage's solves: per user 2*n systems of
// antennas x layers.
func replayMMSE(rc uplink.ReceiverConfig, pl *pool, dur int64) float64 {
	ant := rc.Antennas
	r := rng.New(2)
	var solver [uplink.MaxLayers + 1]*linalg.MMSEWorkspace
	var h, w [uplink.MaxLayers + 1]linalg.Matrix
	for l := 1; l <= min(ant, uplink.MaxLayers); l++ {
		solver[l] = linalg.NewMMSEWorkspace(ant, l)
		h[l] = linalg.Matrix{Rows: ant, Cols: l, Data: randomComplex(r, ant*l)}
		w[l] = linalg.NewMatrix(l, ant)
	}
	return perSubframe(pl, dur, func(e *entry) {
		for _, u := range e.sf.Users {
			l := u.Params.Layers
			for k := 0; k < uplink.SlotsPerSubframe*u.Params.Subcarriers(); k++ {
				// The channel is well conditioned; the error path is the
				// receiver's, not the kernel's.
				_ = solver[l].Solve(&w[l], h[l], u.NoiseVar)
			}
		}
	})
}

// replayTurbo decodes one K = 6144 block with the int8 kernel and no CRC
// gate, and returns nanoseconds per information bit per half-iteration. The
// input is a noisy codeword, so decisions keep changing and the decoder's
// stability stop does not cut the run short.
func replayTurbo(iterations int, dur int64) float64 {
	const k = 6144
	codec, err := turbo.NewCodec(k)
	if err != nil {
		panic(err) // 6144 is the largest valid LTE block size
	}
	r := rng.New(3)
	info := make([]uint8, k)
	for i := range info {
		info[i] = r.Bit()
	}
	llr := make([]float64, 0, turbo.CodedLen(k))
	for _, b := range codec.Encode(info) {
		llr = append(llr, 1-2*float64(b)+1.2*r.NormFloat64())
	}
	ws := workspace.New()
	var ns, halfIters int64
	for start := now(); now()-start < dur; {
		m := ws.Mark()
		t := now()
		_, h := codec.DecodeQuantIn(ws, llr, turbo.DecodeOpts{Iterations: iterations})
		ns += now() - t
		ws.Release(m)
		halfIters += int64(h)
	}
	return float64(ns) / float64(halfIters*k)
}

// replayCRC checks CRC24A over a largest-block transport block and returns
// nanoseconds per bit.
func replayCRC(dur int64) float64 {
	r := rng.New(4)
	msg := make([]uint8, 6144)
	for i := range msg {
		msg[i] = r.Bit()
	}
	block := crc.CRC24A.AppendBits(msg)
	var ns, bits int64
	okAll := true
	for start := now(); now()-start < dur; {
		t := now()
		okAll = crc.CRC24A.CheckBits(block) && okAll
		ns += now() - t
		bits += int64(len(block))
	}
	if !okAll {
		panic("benchmark: CRC24A rejected its own checksum")
	}
	return float64(ns) / float64(bits)
}

type codecReplay struct {
	frameBytes, encodeNs, decodeNs, admissionNs float64
	failed                                      int
}

// replayCodec times the two sides of the frame codec on the same bytes —
// AppendFrame into a reused buffer, then ParseHeader + VerifyPayload +
// ParseUsers — and the admission pass the ingest runs between them and the
// dispatch: EstimateUser per user plus Admission.Decide.
func replayCodec(rc uplink.ReceiverConfig, pl *pool, workers int, dur int64, tr *tracer) codecReplay {
	var out codecReplay
	var buf []byte
	var recs [fronthaul.MaxUsersPerFrame]fronthaul.UserRecord
	var est [fronthaul.MaxUsersPerFrame]float64
	var prio [fronthaul.MaxUsersPerFrame]uint8
	var admit [fronthaul.MaxUsersPerFrame]bool
	pred := fronthaul.NewCostPredictor(cost.Default(), rc.Antennas, workers, 0.005)
	adm := fronthaul.Admission{Capacity: wireCapacity, Burst: 2 * wireCapacity}
	var enc, dec, dcd, bytes int64
	seq := int64(0)
	perSubframe(pl, dur, func(e *entry) {
		t0 := now()
		var err error
		buf, err = fronthaul.AppendFrame(buf[:0], 0, seq, e.frame)
		t1 := now()
		hdr := (*[fronthaul.FrameHeaderLen]byte)(buf)
		h, herr := fronthaul.ParseHeader(hdr, fronthaul.MaxUsersPerFrame, fronthaul.DefaultMaxPayload)
		payload := buf[fronthaul.FrameHeaderLen : len(buf)-fronthaul.TrailerLen]
		verr := fronthaul.VerifyPayload(payload, (*[fronthaul.TrailerLen]byte)(buf[len(buf)-fronthaul.TrailerLen:]))
		n, uerr := fronthaul.ParseUsers(h, payload, &recs)
		t2 := now()
		for i := 0; i < n; i++ {
			est[i] = pred.EstimateUser(recs[i].Params)
			prio[i] = recs[i].Priority
		}
		d := adm.Decide(seq, est[:n], prio[:n], admit[:n])
		t3 := now()
		if err != nil || herr != nil || verr != nil || uerr != nil || n != len(e.frame) || d.Admitted != n {
			out.failed++
		}
		sf := int32(seq)
		tr.add(spEncode, 2, -1, sf, t0, t1)
		tr.add(spDecodeFrame, 2, -1, sf, t1, t2)
		tr.add(spAdmission, 2, -1, sf, t2, t3)
		enc, dec, dcd, bytes = enc+t1-t0, dec+t2-t1, dcd+t3-t2, bytes+int64(len(buf))
		seq++
	})
	n := float64(seq)
	out.frameBytes, out.encodeNs, out.decodeNs, out.admissionNs = float64(bytes)/n, float64(enc)/n, float64(dec)/n, float64(dcd)/n
	return out
}

// costShareError compares internal/cost's split of a subframe across
// {chanest, weights, data, backend} with the measured split and returns the
// largest absolute difference of shares.
func costShareError(rc uplink.ReceiverConfig, pl *pool, measured [4]float64) float64 {
	m := cost.Default()
	m.TurboFull = rc.Turbo == uplink.TurboFull
	m.TurboIterations = rc.TurboIterations
	if pl.codeBlocks > 0 {
		m.TurboHalfIters = float64(pl.halfIters) / float64(pl.codeBlocks)
	}
	var model [4]float64
	for i := range pl.entries {
		for _, u := range pl.entries[i].sf.Users {
			p := u.Params
			n := p.Subcarriers()
			model[0] += float64(rc.Antennas*p.Layers) * m.ChanEstTask(n)
			model[1] += m.WeightsTask(n, rc.Antennas, p.Layers)
			model[2] += float64(uplink.DataSymbolsPerSubframe*p.Layers) * m.DataTask(n, rc.Antennas)
			model[3] += m.BackendTask(n, p.Layers, p.Mod)
		}
	}
	var modelSum, measuredSum float64
	for i := range model {
		modelSum += model[i]
		measuredSum += measured[i]
	}
	worst := 0.0
	for i := range model {
		if d := model[i]/modelSum - measured[i]/measuredSum; d > worst {
			worst = d
		} else if -d > worst {
			worst = -d
		}
	}
	return worst
}

// obsOverhead is what the pool's telemetry costs a subframe: each entry runs
// twice back to back, sampling off and on in alternating order, and the result
// is the median on/off ratio minus one. Pairing on the same entry within
// milliseconds keeps the pool's mix and the host's mood out of the ratio.
func obsOverhead(cp *checkedPool, pl *pool, dur int64) float64 {
	var ratios []float64
	for start, i := now(), 0; now()-start < dur; i++ {
		e := pl.take()
		var t [2]int64
		for k := 0; k < 2; k++ {
			on := (i + k) % 2
			cp.Telemetry().SetSampling(on)
			a := now()
			cp.ProcessSubframe(&e.sf)
			t[on] = now() - a
		}
		ratios = append(ratios, float64(t[1])/float64(t[0]))
	}
	cp.Telemetry().SetSampling(0)
	return median(ratios) - 1
}

// poolStats sums a pool's per-worker counters.
func poolStats(p *sched.Pool) (s sched.WorkerStats) {
	for _, w := range p.Stats() {
		s.TasksRun += w.TasksRun
		s.Steals += w.Steals
		s.FailedSteals += w.FailedSteals
		s.BusyNanos += w.BusyNanos
	}
	return s
}

// schedCounts are the scheduler's work counts over one run.
type schedCounts struct {
	busyFrac, tasksPerSubframe, stealsPerSubframe, failedStealFrac float64
}

func schedDelta(before, after sched.WorkerStats, workers int, wallNs int64, subframes int) schedCounts {
	steals := float64(after.Steals - before.Steals)
	failed := float64(after.FailedSteals - before.FailedSteals)
	c := schedCounts{
		busyFrac:          float64(after.BusyNanos-before.BusyNanos) / (float64(workers) * float64(wallNs)),
		tasksPerSubframe:  float64(after.TasksRun-before.TasksRun) / float64(subframes),
		stealsPerSubframe: steals / float64(subframes),
	}
	if steals+failed > 0 {
		c.failedStealFrac = failed / (steals + failed)
	}
	return c
}
