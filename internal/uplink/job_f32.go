package uplink

import (
	"math"
	"sync"

	"ltephy/internal/phy/fft"
	"ltephy/internal/phy/lane"
	"ltephy/internal/phy/linalg"
	"ltephy/internal/phy/sequence"
	"ltephy/internal/phy/workspace"
)

// Float32 hot path: with ReceiverConfig.Precision == PrecisionFloat32
// every stage between the job boundary and the turbo decoder runs on the
// split-plane float32 lane layout (internal/phy/lane). The received
// samples are packed to planes once at Init, the demapped LLRs widen
// back to float64 once in the finish stage, and everything in between —
// matched filter, transform batches, noise/CFO estimation, weight
// solves, combining, despreading, demapping — is stride-1 float32 plane
// arithmetic. Stage task structure, results, and all public interfaces
// are identical to the complex128 path; the dispatch is a branch at the
// top of each kernel in job.go / irc.go.
//
// Weight layout: where the complex128 path stores combining rows per
// subcarrier ([(k*layers+l)*ant + a], gather-friendly for a per-k row
// dot), the float32 path stores one contiguous subcarrier plane per
// (layer, antenna) pair ([(l*ant+a)*n + k]) so the combine stage is a
// stride-1 lane.MulAcc per antenna. The solve stage scatters into that
// layout; its cost is dominated by the per-subcarrier Cholesky anyway.

// jobF32 is the float32 split-plane state of a UserJob, populated by
// initF32 only when the job runs at PrecisionFloat32.
type jobF32 struct {
	plan *fft.PlanF32

	layerRef []lane.Vec // per-layer DMRS planes; shared, read-only

	// refRe/refIm hold the packed reference symbols,
	// [(slot*ant + a)*n + k].
	refRe, refIm []float32
	// dataRe/dataIm hold the packed data symbols,
	// [((slot*DataSymbolsPerSlot + sym)*ant + a)*n + k].
	dataRe, dataIm []float32
	// hestRe/hestIm hold both slots' channel estimates,
	// [slot*al*n + (a*layers+l)*n + k]; batched FFTs write straight in.
	hestRe, hestIm []float32
	// wRe/wIm[slot] hold combining weights, [(l*ant+a)*n + k].
	wRe, wIm [SlotsPerSubframe][]float32
	// combRe/combIm hold despread symbols, [g*n + t] in the canonical
	// (slot, sym, layer) group order shared with the complex128 path.
	combRe, combIm []float32
}

// ref returns the packed reference-symbol planes for (slot, antenna).
func (f *jobF32) ref(slot, a, ant, n int) (re, im []float32) {
	o := (slot*ant + a) * n
	return f.refRe[o : o+n], f.refIm[o : o+n]
}

// data returns the packed data-symbol planes for (slot, sym, antenna).
func (f *jobF32) data(slot, sym, a, ant, n int) (re, im []float32) {
	o := ((slot*DataSymbolsPerSlot+sym)*ant + a) * n
	return f.dataRe[o : o+n], f.dataIm[o : o+n]
}

// hest returns one slot's channel-estimate planes.
func (f *jobF32) hest(slot, al, n int) (re, im []float32) {
	o := slot * al * n
	return f.hestRe[o : o+al*n], f.hestIm[o : o+al*n]
}

// dmrsF32Cache shares the split-plane per-layer reference sequences
// across jobs, the float32 counterpart of dmrsCache: a pure function of
// the allocation width, built once per width by narrowing the complex128
// references.
var (
	dmrsF32Mu    sync.RWMutex
	dmrsF32Cache = map[int][]lane.Vec{}
)

// layerRefsF32 is a double-checked RWMutex cache: steady state is one
// uncontended RLock over a map read; the write lock is first-sight-only.
//
//ltephy:blocking-ok
func layerRefsF32(n int) []lane.Vec {
	dmrsF32Mu.RLock()
	refs := dmrsF32Cache[n]
	dmrsF32Mu.RUnlock()
	if refs != nil {
		return refs
	}
	src := layerRefs(n)
	refs = make([]lane.Vec, sequence.MaxLayers)
	for l := range refs {
		refs[l] = lane.NewVecIn(nil, n)
		lane.PackVec(refs[l], src[l])
	}
	dmrsF32Mu.Lock()
	if cached, ok := dmrsF32Cache[n]; ok {
		refs = cached
	} else {
		dmrsF32Cache[n] = refs
	}
	dmrsF32Mu.Unlock()
	return refs
}

// initF32 carves the float32 job-lifetime planes from ws and packs the
// received samples — the single complex128 -> float32 conversion point
// of the whole chain.
//
// The carves stored in job fields are job-lifetime by contract, exactly
// as in Init.
//
//ltephy:owns-scratch
func (j *UserJob) initF32(ws *workspace.Arena) {
	n, ant := j.n, j.Cfg.Antennas
	f := &j.f32
	f.plan = fft.GetF32(n)
	f.layerRef = layerRefsF32(n)[:j.layers]

	f.refRe = ws.Float32(SlotsPerSubframe * ant * n)
	f.refIm = ws.Float32(SlotsPerSubframe * ant * n)
	f.dataRe = ws.Float32(SlotsPerSubframe * DataSymbolsPerSlot * ant * n)
	f.dataIm = ws.Float32(SlotsPerSubframe * DataSymbolsPerSlot * ant * n)
	for slot := 0; slot < SlotsPerSubframe; slot++ {
		for a := 0; a < ant; a++ {
			re, im := f.ref(slot, a, ant, n)
			lane.Pack(re, im, j.U.RefRx[slot][a])
			for sym := 0; sym < DataSymbolsPerSlot; sym++ {
				re, im = f.data(slot, sym, a, ant, n)
				lane.Pack(re, im, j.U.DataRx[slot][sym][a])
			}
		}
	}

	al := ant * j.layers
	f.hestRe = ws.Float32(SlotsPerSubframe * al * n)
	f.hestIm = ws.Float32(SlotsPerSubframe * al * n)
	for slot := 0; slot < SlotsPerSubframe; slot++ {
		f.wRe[slot] = ws.Float32(n * j.layers * ant)
		f.wIm[slot] = ws.Float32(n * j.layers * ant)
	}
	f.combRe = ws.Float32(DataSymbolsPerSubframe * j.layers * n)
	f.combIm = ws.Float32(DataSymbolsPerSubframe * j.layers * n)
}

// chanEstTaskF32 is chanEstTask on split planes: matched filter against
// the layer's reference, batched IFFT, time-domain window, batched FFT
// landing directly in the hest slab through the strided destination.
func (j *UserJob) chanEstTaskF32(ws *workspace.Arena, i int, ls bool) {
	a := i / j.layers
	l := i % j.layers
	n, ant := j.n, j.Cfg.Antennas
	f := &j.f32
	ref := f.layerRef[l]
	if ls {
		for slot := 0; slot < SlotsPerSubframe; slot++ {
			hre, him := f.hest(slot, ant*j.layers, n)
			o := (a*j.layers + l) * n
			rxRe, rxIm := f.ref(slot, a, ant, n)
			lane.MulConj(hre[o:o+n], him[o:o+n], rxRe, rxIm, ref.Re, ref.Im)
		}
		return
	}
	m := ws.Mark()
	mfRe := ws.Float32(SlotsPerSubframe * n)
	mfIm := ws.Float32(SlotsPerSubframe * n)
	tdRe := ws.Float32(SlotsPerSubframe * n)
	tdIm := ws.Float32(SlotsPerSubframe * n)
	for slot := 0; slot < SlotsPerSubframe; slot++ {
		rxRe, rxIm := f.ref(slot, a, ant, n)
		lane.MulConj(mfRe[slot*n:(slot+1)*n], mfIm[slot*n:(slot+1)*n], rxRe, rxIm, ref.Re, ref.Im)
	}
	f.plan.InverseBatch(ws, tdRe, tdIm, mfRe, mfIm, SlotsPerSubframe, n)
	for slot := 0; slot < SlotsPerSubframe; slot++ {
		clear(tdRe[slot*n+j.window : (slot+1)*n])
		clear(tdIm[slot*n+j.window : (slot+1)*n])
	}
	aln := ant * j.layers * n
	o := (a*j.layers + l) * n
	f.plan.ForwardBatchStrided(ws, f.hestRe[o:], f.hestIm[o:], tdRe, tdIm, SlotsPerSubframe, aln, n)
	ws.Release(m)
}

// chanEstBatchF32 is chanEstBatch on split planes: slot-wide matched
// filter + IFFT + window + FFT batches over tasks [from, to), bit-exact
// with per-task chanEstTaskF32.
func (j *UserJob) chanEstBatchF32(ws *workspace.Arena, from, to int, ls bool) {
	if ls {
		for i := from; i < to; i++ {
			j.chanEstTaskF32(ws, i, true)
		}
		return
	}
	n, ant := j.n, j.Cfg.Antennas
	cnt := to - from
	m := ws.Mark()
	mfRe := ws.Float32(cnt * n)
	mfIm := ws.Float32(cnt * n)
	tdRe := ws.Float32(cnt * n)
	tdIm := ws.Float32(cnt * n)
	for slot := 0; slot < SlotsPerSubframe; slot++ {
		for i := from; i < to; i++ {
			rxRe, rxIm := f32Ref(j, slot, i/j.layers)
			ref := j.f32.layerRef[i%j.layers]
			o := (i - from) * n
			lane.MulConj(mfRe[o:o+n], mfIm[o:o+n], rxRe, rxIm, ref.Re, ref.Im)
		}
		j.f32.plan.InverseBatch(ws, tdRe, tdIm, mfRe, mfIm, cnt, n)
		for i := 0; i < cnt; i++ {
			clear(tdRe[i*n+j.window : (i+1)*n])
			clear(tdIm[i*n+j.window : (i+1)*n])
		}
		hre, him := j.f32.hest(slot, ant*j.layers, n)
		j.f32.plan.ForwardBatch(ws, hre[from*n:to*n], him[from*n:to*n], tdRe, tdIm, cnt, n)
	}
	ws.Release(m)
}

// f32Ref is a small helper for the batch loop above.
func f32Ref(j *UserJob, slot, a int) (re, im []float32) {
	return j.f32.ref(slot, a, j.Cfg.Antennas, j.n)
}

// estimateNoiseF32 is estimateNoise on the hest planes: the
// slot-difference power reduction runs in lane.SumDiffMag2 (float64
// accumulation), with the same W/N rescale and floor.
func (j *UserJob) estimateNoiseF32() float64 {
	al := j.Cfg.Antennas * j.layers
	h0re, h0im := j.f32.hest(0, al, j.n)
	h1re, h1im := j.f32.hest(1, al, j.n)
	count := len(h0re)
	if count == 0 {
		return 1e-12
	}
	sum := lane.SumDiffMag2(h0re, h0im, h1re, h1im)
	est := (sum / float64(count)) / 2 * float64(j.n) / float64(j.window)
	if est < 1e-12 {
		est = 1e-12
	}
	return est
}

// estimateCFOF32 is estimateCFO on the hest planes via the conjugate
// correlation reduction.
func (j *UserJob) estimateCFOF32() float64 {
	al := j.Cfg.Antennas * j.layers
	h0re, h0im := j.f32.hest(0, al, j.n)
	h1re, h1im := j.f32.hest(1, al, j.n)
	re, im := lane.DotConj(h1re, h1im, h0re, h0im)
	return math.Atan2(im, re) / (2 * math.Pi * float64(SymbolsPerSlot))
}

// computeLinearWeightsF32 fills the float32 weight planes for the MMSE
// family: per subcarrier it gathers the channel matrix from the hest
// planes into stack arrays, solves by Cholesky (or runs the per-layer
// MRC matched filter), and scatters the rows into the per-(layer,
// antenna) plane layout. All scratch is on the stack — no arena marks,
// no allocation.
func (j *UserJob) computeLinearWeightsF32(solveNV float64, mrc bool) {
	n, ant, layers := j.n, j.Cfg.Antennas, j.layers
	al := ant * layers
	nv := float32(solveNV)
	var hR, hI, wR, wI [linalg.MaxDim * linalg.MaxDim]float32
	for slot := 0; slot < SlotsPerSubframe; slot++ {
		hre, him := j.f32.hest(slot, al, n)
		outRe, outIm := j.f32.wRe[slot], j.f32.wIm[slot]
		for k := 0; k < n; k++ {
			for a := 0; a < ant; a++ {
				for l := 0; l < layers; l++ {
					hR[a*layers+l] = hre[(a*layers+l)*n+k]
					hI[a*layers+l] = him[(a*layers+l)*n+k]
				}
			}
			if mrc {
				// Per-layer matched filter: w_l = h_l^H / (|h_l|^2 + nv).
				for l := 0; l < layers; l++ {
					var norm float32
					for a := 0; a < ant; a++ {
						norm += hR[a*layers+l]*hR[a*layers+l] + hI[a*layers+l]*hI[a*layers+l]
					}
					scale := 1 / (norm + nv)
					for a := 0; a < ant; a++ {
						wR[l*ant+a] = hR[a*layers+l] * scale
						wI[l*ant+a] = -hI[a*layers+l] * scale
					}
				}
			} else if !linalg.MMSESolve(wR[:al], wI[:al], hR[:al], hI[:al], ant, layers, nv) {
				// Singular channel: zero weights for this subcarrier, as in
				// the complex128 path.
				for i := 0; i < al; i++ {
					wR[i], wI[i] = 0, 0
				}
			}
			for i := 0; i < al; i++ {
				outRe[i*n+k] = wR[i]
				outIm[i*n+k] = wI[i]
			}
		}
	}
}

// estimateCovarianceF32 computes the band-averaged antenna covariance of
// the reference-symbol residuals into the split-plane rRe/rIm (ant x ant
// row-major), diagonally loaded like the complex128 estimateCovariance.
// Residuals are float32 (matching the hot-path arithmetic); the
// accumulation over 2n subcarriers runs in float64 stack accumulators so
// the band average keeps full precision.
func (j *UserJob) estimateCovarianceF32(rRe, rIm []float32) {
	n, ant, layers := j.n, j.Cfg.Antennas, j.layers
	al := ant * layers
	var accRe, accIm [linalg.MaxDim * linalg.MaxDim]float64
	var eR, eI [linalg.MaxDim]float32
	count := 0
	for slot := 0; slot < SlotsPerSubframe; slot++ {
		hre, him := j.f32.hest(slot, al, n)
		for k := 0; k < n; k++ {
			for a := 0; a < ant; a++ {
				var expR, expI float32
				for l := 0; l < layers; l++ {
					hr, hi := hre[(a*layers+l)*n+k], him[(a*layers+l)*n+k]
					rr, ri := j.f32.layerRef[l].Re[k], j.f32.layerRef[l].Im[k]
					expR += hr*rr - hi*ri
					expI += hr*ri + hi*rr
				}
				rxRe, rxIm := j.f32.ref(slot, a, ant, n)
				eR[a] = rxRe[k] - expR
				eI[a] = rxIm[k] - expI
			}
			for a := 0; a < ant; a++ {
				for b := 0; b < ant; b++ {
					// e_a * conj(e_b)
					accRe[a*ant+b] += float64(eR[a]*eR[b] + eI[a]*eI[b])
					accIm[a*ant+b] += float64(eI[a]*eR[b] - eR[a]*eI[b])
				}
			}
			count++
		}
	}
	scale := 1 / float64(count)
	load := j.nv*0.1 + 1e-9
	for a := 0; a < ant; a++ {
		for b := 0; b < ant; b++ {
			re := accRe[a*ant+b] * scale
			if a == b {
				re += load
			}
			rRe[a*ant+b] = float32(re)
			rIm[a*ant+b] = float32(accIm[a*ant+b] * scale)
		}
	}
}

// computeIRCWeightsF32 fills the float32 weight planes with the whitened
// MMSE solution W = (H^H R^{-1} H + I)^{-1} H^H R^{-1} — the IRC
// combiner on the lane layout, all scratch on the stack.
func (j *UserJob) computeIRCWeightsF32() {
	n, ant, layers := j.n, j.Cfg.Antennas, j.layers
	al := ant * layers
	var rR, rI [linalg.MaxDim * linalg.MaxDim]float32
	j.estimateCovarianceF32(rR[:ant*ant], rI[:ant*ant])
	var hR, hI, wR, wI [linalg.MaxDim * linalg.MaxDim]float32
	for slot := 0; slot < SlotsPerSubframe; slot++ {
		hre, him := j.f32.hest(slot, al, n)
		outRe, outIm := j.f32.wRe[slot], j.f32.wIm[slot]
		for k := 0; k < n; k++ {
			for a := 0; a < ant; a++ {
				for l := 0; l < layers; l++ {
					hR[a*layers+l] = hre[(a*layers+l)*n+k]
					hI[a*layers+l] = him[(a*layers+l)*n+k]
				}
			}
			if !linalg.IRCSolve(wR[:al], wI[:al], rR[:ant*ant], rI[:ant*ant], hR[:al], hI[:al], ant, layers) {
				for i := 0; i < al; i++ {
					wR[i], wI[i] = 0, 0
				}
			}
			for i := 0; i < al; i++ {
				outRe[i*n+k] = wR[i]
				outIm[i*n+k] = wI[i]
			}
		}
	}
}

// combineSymbolF32 accumulates the combiner output for data task i into
// the (zeroed-on-entry) comb planes: one stride-1 lane.MulAcc per
// antenna per the weight-plane layout, then the residual-CFO
// de-rotation.
func (j *UserJob) combineSymbolF32(i int, combRe, combIm []float32) {
	layers := j.layers
	slot := i / (DataSymbolsPerSlot * layers)
	rem := i % (DataSymbolsPerSlot * layers)
	sym := rem / layers
	l := rem % layers
	n, ant := j.n, j.Cfg.Antennas
	wre, wim := j.f32.wRe[slot], j.f32.wIm[slot]
	for a := 0; a < ant; a++ {
		o := (l*ant + a) * n
		rxRe, rxIm := j.f32.data(slot, sym, a, ant, n)
		lane.MulAcc(combRe, combIm, wre[o:o+n], wim[o:o+n], rxRe, rxIm)
	}
	if j.cfo != 0 {
		delta := float64(DataSymbolPos(sym) - RefSymbolPos)
		theta := -2 * math.Pi * j.cfo * delta
		lane.ScaleC(float32(math.Cos(theta)), float32(math.Sin(theta)), combRe, combIm)
	}
}

// dataTaskF32 is dataTask on split planes: combine, batched IDFT
// despread into the combined slab, 1/sqrt(N) undo.
func (j *UserJob) dataTaskF32(ws *workspace.Arena, i int) {
	n := j.n
	m := ws.Mark()
	combRe := ws.Float32(n)
	combIm := ws.Float32(n)
	j.combineSymbolF32(i, combRe, combIm)
	outRe := j.f32.combRe[i*n : (i+1)*n]
	outIm := j.f32.combIm[i*n : (i+1)*n]
	j.f32.plan.InverseIn(ws, outRe, outIm, combRe, combIm)
	lane.Scale(float32(math.Sqrt(float64(n))), outRe, outIm)
	ws.Release(m)
}

// dataBatchF32 is dataBatch on split planes: gather the whole range,
// one batched IDFT into the combined slab, one scale pass. Bit-exact
// with per-task dataTaskF32.
func (j *UserJob) dataBatchF32(ws *workspace.Arena, from, to int) {
	n := j.n
	cnt := to - from
	m := ws.Mark()
	combRe := ws.Float32(cnt * n)
	combIm := ws.Float32(cnt * n)
	for i := from; i < to; i++ {
		o := (i - from) * n
		j.combineSymbolF32(i, combRe[o:o+n], combIm[o:o+n])
	}
	outRe := j.f32.combRe[from*n : to*n]
	outIm := j.f32.combIm[from*n : to*n]
	j.f32.plan.InverseBatch(ws, outRe, outIm, combRe, combIm, cnt, n)
	lane.Scale(float32(math.Sqrt(float64(n))), outRe, outIm)
	ws.Release(m)
}

// finishF32 is the float32 backend: split-plane deinterleave, fused
// float32 demap + EVM, one float32 -> float64 LLR widening (the turbo
// decoder and HARQ keep their float64 interfaces), descramble, decode,
// CRC, and the float32 channel-MSE metric.
//
// The widened LLRs are stored in j.softBits past the scratch Release —
// the same deliberate contract as finish: softBits survive on the arena
// until the job-lifetime mark is released (HARQ Absorb consumes them
// first).
//
//ltephy:owns-scratch
func (j *UserJob) finishF32(ws *workspace.Arena) {
	res := UserResult{UserID: j.U.Params.ID, ChannelMSE: math.NaN()}
	m := ws.Mark()
	total := len(j.f32.combRe)
	deintRe := ws.Float32(total)
	deintIm := ws.Float32(total)
	deinterleaveSymbolsF32(j.Cfg, deintRe, j.f32.combRe)
	deinterleaveSymbolsF32(j.Cfg, deintIm, j.f32.combIm)
	nv := j.backendNoiseVar()
	llr32, evm := j.U.Params.Mod.DemapEVMF32(ws.Float32(j.format.TotalBits)[:0], deintRe, deintIm, float32(nv))
	// The single float32 -> float64 conversion of the receive chain: the
	// decoder, HARQ soft-combining and SoftBits() stay width-agnostic.
	llr := ws.Float(j.format.TotalBits)
	for i, v := range llr32 {
		llr[i] = float64(v)
	}
	if j.Cfg.Scramble {
		DescrambleIn(ws, llr, j.U.Params.ID)
	}
	j.softBits = llr
	dp := j.Cfg.DecodeParams()
	dp.Par = j.par
	payload, ok, halfIters := j.format.DecodeTransportBlockParams(j.bits[:0], ws, llr, dp)
	j.bits = payload
	res.NoiseVarEst = nv
	res.EVM = evm
	res.Bits = payload
	res.CRCOK = ok && symbolsFinite(evm)
	res.TurboHalfIters = halfIters
	if j.U.Channel != nil {
		res.ChannelMSE = j.channelMSEF32()
	}
	j.stampServing(&res)
	// Scratch released here; softBits intentionally survives on the arena
	// until the job-lifetime mark is released, as in finish.
	j.res = res
	ws.Release(m)
}

// channelMSEF32 is channelMSE against the float32 estimate planes,
// widening each element for the float64 error accumulation.
func (j *UserJob) channelMSEF32() float64 {
	truth := j.U.Channel
	al := j.Cfg.Antennas * j.layers
	var num, den float64
	for slot := 0; slot < SlotsPerSubframe; slot++ {
		hre, him := j.f32.hest(slot, al, j.n)
		for a := 0; a < j.Cfg.Antennas; a++ {
			for l := 0; l < j.layers; l++ {
				h := truth.Resp(a, l)
				for k := 0; k < j.n; k++ {
					o := (a*j.layers+l)*j.n + k
					dr := float64(hre[o]) - real(h[k])
					di := float64(him[o]) - imag(h[k])
					num += dr*dr + di*di
					den += real(h[k])*real(h[k]) + imag(h[k])*imag(h[k])
				}
			}
		}
	}
	if den == 0 {
		return math.Inf(1)
	}
	return num / den
}
