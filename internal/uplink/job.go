package uplink

import (
	"fmt"
	"math"
	"sync"

	"ltephy/internal/phy/fft"
	"ltephy/internal/phy/linalg"
	"ltephy/internal/phy/sequence"
	"ltephy/internal/phy/turbo"
	"ltephy/internal/phy/workspace"
)

// UserJob carries the intermediate state for processing one user in one
// subframe and exposes the stage/task structure the paper parallelises
// (Section III and Fig. 5):
//
//	stage 1: channel estimation, NumChanEstTasks() tasks — independent
//	stage 2: combiner weights                            — serial
//	stage 3: combine/despread, NumDataTasks() tasks      — independent
//	stage 4: backend (demap/decode/CRC)                  — serial
//
// Stages() returns the pipeline as Stage values resolved through the
// estimator/combiner registries; the per-method API (ChanEstTask,
// ComputeWeights, DataTask, Finish) remains as a convenience wrapper over
// the same kernels with heap-backed scratch.
//
// Tasks within a stage may run concurrently on different goroutines; the
// stage boundaries are barriers the caller must enforce (the work-stealing
// runtime in internal/sched does, and the serial receiver trivially does).
//
// Memory: a job initialised with Init(ws, ...) carves its job-lifetime
// buffers (channel estimates, weights, combined symbols) from ws; they are
// valid until the caller releases the mark enclosing the job. Per-task
// scratch comes from the arena passed to each Stage.Run call — the
// executing worker's, which need not be the one that owns the job's
// buffers. Decoded payload bits are always heap memory (they outlive the
// job), demapped soft bits live wherever the finish stage's arena puts
// them.
type UserJob struct {
	Cfg ReceiverConfig
	U   *UserData

	n      int // subcarriers
	layers int
	format TransportFormat

	// plan is the shared FFT plan for the allocation width, resolved once
	// at Init so per-symbol/per-antenna loops never repeat the fft.Get map
	// lookup; window is the channel-estimation time-domain window width.
	plan   *fft.Plan
	window int

	layerRef [][]complex128 // conj-ready per-layer DMRS, [layer][k]; shared, read-only

	// hestAll is one contiguous carve holding both slots' channel
	// estimates ([slot][(a*layers+l)*n + k]); batched FFTs write straight
	// into it. hest[slot] are its per-slot subslices.
	hestAll []complex128
	hest    [SlotsPerSubframe][]complex128
	// weights[slot][(k*layers+l)*antennas + a]: MMSE combining rows.
	weights [SlotsPerSubframe][]complex128
	// combined[g*n + t]: despread time-domain symbols in canonical order,
	// g = (slot*DataSymbolsPerSlot + sym)*layers + layer.
	combined []complex128

	// nv is the noise variance the combiner and demapper use: the genie
	// value from UserData, or (with Cfg.EstimateNoise) the slot-difference
	// estimate computed in the weight stage.
	nv float64
	// softBits are the demapped (and descrambled) LLRs the finish stage
	// produced — the input HARQ combining needs for retransmission
	// soft-combining. Arena-backed when finish ran with an arena.
	softBits []float64
	// cfo is the estimated carrier frequency offset (fraction of the
	// subcarrier spacing), resolved in the weight stage when Cfg.CorrectCFO.
	cfo float64

	// res is the finished result; bits is its reusable heap backing for the
	// decoded payload. Re-initialising a job recycles bits, so a result's
	// Bits are only valid until the job's next run — drivers that retain
	// results (the pool's OnResult) use a fresh job per user.
	res  UserResult
	bits []uint8

	// fp32 selects the float32 split-plane hot path (job_f32.go): every
	// stage kernel branches to its F32 twin, with f32 holding the lane
	// layout state. Set from Cfg.Precision at Init.
	fp32 bool
	f32  jobF32

	// par, when set (after Init — Init clears it), lets the turbo
	// decoder fan one code block's trellis windows out across scheduler
	// workers instead of serializing a large block on one core.
	par turbo.Parallel
}

// SetParallel installs the window fan-out hook the finish stage hands to
// the turbo decoder. Call after Init; a nil hook (or none) decodes
// serially with identical results.
func (j *UserJob) SetParallel(p turbo.Parallel) { j.par = p }

// SoftBits returns the demapped, descrambled LLR stream of the whole
// allocation. Valid after the finish stage; HARQProcess.Absorb consumes
// it. When the job ran on an arena the slice is arena-backed and must be
// consumed before the job's scratch is released.
func (j *UserJob) SoftBits() []float64 { return j.softBits }

// Result returns the user result the finish stage produced.
func (j *UserJob) Result() UserResult { return j.res }

// dmrsCache shares the per-layer reference sequences across jobs: they are
// a pure function of the allocation width, and user allocations repeat
// heavily across subframes. Each entry holds all MaxLayers layers.
// RWMutex-guarded so the per-job lookup doesn't box the key and stays
// allocation-free.
var (
	dmrsMu    sync.RWMutex
	dmrsCache = map[int][][]complex128{}
)

// layerRefs is a double-checked RWMutex cache: steady state is one
// uncontended RLock over a map read; the write lock is first-sight-only.
//
//ltephy:blocking-ok
func layerRefs(n int) [][]complex128 {
	dmrsMu.RLock()
	refs := dmrsCache[n]
	dmrsMu.RUnlock()
	if refs != nil {
		return refs
	}
	base := sequence.BaseDMRS(n)
	refs = make([][]complex128, sequence.MaxLayers)
	for l := range refs {
		refs[l] = sequence.LayerDMRS(base, l)
	}
	dmrsMu.Lock()
	if cached, ok := dmrsCache[n]; ok {
		refs = cached
	} else {
		dmrsCache[n] = refs
	}
	dmrsMu.Unlock()
	return refs
}

// NewUserJob validates inputs and allocates the job state on the heap.
func NewUserJob(cfg ReceiverConfig, u *UserData) (*UserJob, error) {
	j := &UserJob{}
	if err := j.Init(nil, cfg, u); err != nil {
		return nil, err
	}
	return j, nil
}

// Init (re)initialises the job for one user, carving the job-lifetime
// buffers from ws (heap when nil). A zero-value or previously used UserJob
// is valid; reuse keeps the hot path allocation-free but recycles the
// previous result's payload storage.
//
// The carves stored in job fields are job-lifetime by contract: the
// worker's per-user mark (sched.processUser) outlives the job.
//
//ltephy:owns-scratch
func (j *UserJob) Init(ws *workspace.Arena, cfg ReceiverConfig, u *UserData) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if err := u.Params.Validate(); err != nil {
		return err
	}
	if u.Params.Layers > cfg.Antennas {
		return fmt.Errorf("uplink: user %d: %d layers exceed %d antennas",
			u.Params.ID, u.Params.Layers, cfg.Antennas)
	}
	if got := u.Antennas(); got != cfg.Antennas {
		return fmt.Errorf("uplink: user %d: data captured with %d antennas, receiver configured for %d",
			u.Params.ID, got, cfg.Antennas)
	}
	n := u.Params.Subcarriers()
	for slot := 0; slot < SlotsPerSubframe; slot++ {
		for a := 0; a < cfg.Antennas; a++ {
			if len(u.RefRx[slot][a]) != n {
				return fmt.Errorf("uplink: user %d: ref symbol slot %d antenna %d has %d subcarriers, want %d",
					u.Params.ID, slot, a, len(u.RefRx[slot][a]), n)
			}
		}
	}
	format, err := cachedTransportFormat(u.Params, cfg.Turbo, cfg.CodeRate)
	if err != nil {
		return err
	}
	bits := j.bits // survives re-initialisation: reusable payload storage
	*j = UserJob{Cfg: cfg, U: u, n: n, layers: u.Params.Layers, format: format, bits: bits}
	j.window = n / sequence.MaxLayers
	if j.window < 1 {
		j.window = 1
	}
	if cfg.Precision == PrecisionFloat32 {
		// Float32 lane path: the job-lifetime state is the split-plane
		// layout in j.f32; the complex128 buffers stay nil.
		j.fp32 = true
		j.initF32(ws)
		return nil
	}
	j.plan = fft.Get(n)
	j.layerRef = layerRefs(n)[:j.layers]
	al := cfg.Antennas * j.layers
	j.hestAll = ws.Complex(SlotsPerSubframe * al * n)
	for slot := 0; slot < SlotsPerSubframe; slot++ {
		j.hest[slot] = j.hestAll[slot*al*n : (slot+1)*al*n]
		j.weights[slot] = ws.Complex(n * j.layers * cfg.Antennas)
	}
	j.combined = ws.Complex(DataSymbolsPerSubframe * j.layers * n)
	return nil
}

// Format returns the transport format the job decodes against.
func (j *UserJob) Format() TransportFormat { return j.format }

// NumChanEstTasks returns antennas * layers — the paper's "up to 16 tasks".
func (j *UserJob) NumChanEstTasks() int { return j.Cfg.Antennas * j.layers }

// NumDataTasks returns dataSymbols * layers — the paper's "up to 24 tasks"
// per slot, i.e. 12*layers for the whole subframe.
func (j *UserJob) NumDataTasks() int { return DataSymbolsPerSubframe * j.layers }

// ChanEstTask estimates the channel for one (antenna, layer) pair with
// heap scratch — the convenience form of the channel-estimation stage.
func (j *UserJob) ChanEstTask(i int) {
	chanEstStages[j.Cfg.ChanEst].Run(nil, j, i)
}

// matchedFilter writes the matched-filter output for (slot, antenna,
// layer l's reference) into mf: unit-modulus reference, so conjugate
// multiply inverts the known sequence and leaves H plus the other layers'
// responses shifted to their own windows.
func (j *UserJob) matchedFilter(mf []complex128, slot, a, l int) {
	rx := j.U.RefRx[slot][a]
	ref := j.layerRef[l]
	for k := 0; k < j.n; k++ {
		mf[k] = rx[k] * cmplxConj(ref[k])
	}
}

// chanEstTask estimates the channel for one (antenna, layer) pair across
// both slots: matched filter against the layer's reference sequence, IFFT
// to the time domain, windowing around the layer's cyclic shift, FFT back
// (the paper's Fig. 3 channel-estimation chain). ls selects the raw
// least-squares variant (matched filter only). The two slots run as one
// FFT batch, landing directly in hestAll through the strided destination.
func (j *UserJob) chanEstTask(ws *workspace.Arena, i int, ls bool) {
	if j.fp32 {
		j.chanEstTaskF32(ws, i, ls)
		return
	}
	a := i / j.layers
	l := i % j.layers
	n := j.n
	if ls {
		// Raw least-squares: no denoising, no layer separation.
		for slot := 0; slot < SlotsPerSubframe; slot++ {
			out := j.hest[slot][(a*j.layers+l)*n : (a*j.layers+l+1)*n]
			j.matchedFilter(out, slot, a, l)
		}
		return
	}
	m := ws.Mark()
	mf := ws.Complex(SlotsPerSubframe * n)
	td := ws.Complex(SlotsPerSubframe * n)
	for slot := 0; slot < SlotsPerSubframe; slot++ {
		j.matchedFilter(mf[slot*n:(slot+1)*n], slot, a, l)
	}
	j.plan.InverseBatch(ws, td, mf, SlotsPerSubframe, n)
	// Window: this layer's impulse response occupies [0, window).
	for slot := 0; slot < SlotsPerSubframe; slot++ {
		seg := td[slot*n : (slot+1)*n]
		for t := j.window; t < n; t++ {
			seg[t] = 0
		}
	}
	aln := j.Cfg.Antennas * j.layers * n
	j.plan.ForwardBatchStrided(ws, j.hestAll[(a*j.layers+l)*n:], td, SlotsPerSubframe, aln, n)
	ws.Release(m)
}

// chanEstBatch runs channel-estimation tasks [from, to) as slot-wide FFT
// batches: per slot, matched-filter every (antenna, layer) of the range
// into contiguous scratch, one batched IFFT, window, one batched FFT
// straight into the hest slab. Per-vector arithmetic is identical to
// chanEstTask, so results are bit-exact with the per-task path.
func (j *UserJob) chanEstBatch(ws *workspace.Arena, from, to int, ls bool) {
	if j.fp32 {
		j.chanEstBatchF32(ws, from, to, ls)
		return
	}
	if ls {
		for i := from; i < to; i++ {
			j.chanEstTask(ws, i, true)
		}
		return
	}
	n := j.n
	cnt := to - from
	m := ws.Mark()
	mf := ws.Complex(cnt * n)
	td := ws.Complex(cnt * n)
	for slot := 0; slot < SlotsPerSubframe; slot++ {
		for i := from; i < to; i++ {
			j.matchedFilter(mf[(i-from)*n:(i-from+1)*n], slot, i/j.layers, i%j.layers)
		}
		j.plan.InverseBatch(ws, td, mf, cnt, n)
		for i := 0; i < cnt; i++ {
			seg := td[i*n : (i+1)*n]
			for t := j.window; t < n; t++ {
				seg[t] = 0
			}
		}
		j.plan.ForwardBatch(ws, j.hest[slot][from*n:to*n], td, cnt, n)
	}
	ws.Release(m)
}

// estimateNoise derives the noise variance from the difference of the two
// slots' channel estimates: the channel is block-fading (constant across
// the subframe), so (H_slot0 - H_slot1) is estimation noise alone. The
// window keeps a W/N fraction of the matched filter's noise, hence the
// N/W rescale back to per-subcarrier variance.
func (j *UserJob) estimateNoise() float64 {
	if j.fp32 {
		return j.estimateNoiseF32()
	}
	window := j.window
	var sum float64
	count := 0
	h0, h1 := j.hest[0], j.hest[1]
	for i := range h0 {
		d := h0[i] - h1[i]
		sum += real(d)*real(d) + imag(d)*imag(d)
		count++
	}
	if count == 0 {
		return 1e-12
	}
	// Var(H0-H1) = 2 * windowed noise variance = 2 * sigma^2 * W/N.
	est := (sum / float64(count)) / 2 * float64(j.n) / float64(window)
	if est < 1e-12 {
		est = 1e-12
	}
	return est
}

// NoiseVar returns the noise variance the job operates with (resolved
// during the weight stage).
func (j *UserJob) NoiseVar() float64 { return j.nv }

// CFOEstimate returns the estimated carrier frequency offset (fraction of
// the subcarrier spacing); zero unless Cfg.CorrectCFO was set. Valid after
// the weight stage.
func (j *UserJob) CFOEstimate() float64 { return j.cfo }

// estimateCFO derives the residual frequency offset from the rotation
// between the two slots' channel estimates: the references sit seven
// symbols apart, so angle(sum H1*conj(H0)) = 2*pi*cfo*7. Unambiguous for
// |cfo| < 1/14 of the subcarrier spacing — ample for a residual offset.
func (j *UserJob) estimateCFO() float64 {
	if j.fp32 {
		return j.estimateCFOF32()
	}
	var acc complex128
	h0, h1 := j.hest[0], j.hest[1]
	for i := range h0 {
		acc += h1[i] * cmplxConj(h0[i])
	}
	return math.Atan2(imag(acc), real(acc)) / (2 * math.Pi * float64(SymbolsPerSlot))
}

// resolveNoiseAndCFO fixes the working noise variance (genie or estimated)
// and, when configured, the residual CFO — the common preamble of every
// weight stage. The paper notes the weight computation "considers all the
// receiver channels and layers, and is therefore not easily parallelized";
// it runs as one serial task per user.
func (j *UserJob) resolveNoiseAndCFO() {
	var nv float64
	if j.Cfg.EstimateNoise {
		nv = j.estimateNoise()
	} else {
		nv = j.U.NoiseVar
	}
	if !(nv >= 1e-12) {
		// Keeps the regularised Gram matrix invertible; written so that a
		// NaN estimate (NaN IQ) is clamped too.
		nv = 1e-12
	}
	j.nv = nv
	if j.Cfg.CorrectCFO {
		j.cfo = j.estimateCFO()
	}
}

// ComputeWeights derives the per-subcarrier combining matrices with heap
// scratch — the convenience form of the weight stage selected by
// Cfg.Combiner.
func (j *UserJob) ComputeWeights() {
	combinerStages[j.Cfg.Combiner].Run(nil, j, 0)
}

// computeLinearWeights fills the weight buffers for the MMSE family:
// solveNV is the diagonal loading of the Gram matrix (the noise variance
// for MMSE, a numerical guard for ZF), and mrc selects the per-layer
// matched filter instead of the joint solve. Per subcarrier it gathers the
// channel matrix into float64 split planes on the stack and runs the same
// Cholesky solve as the float32 path (linalg.MMSESolve) — no arena marks,
// no allocation.
func (j *UserJob) computeLinearWeights(solveNV float64, mrc bool) {
	if j.fp32 {
		j.computeLinearWeightsF32(solveNV, mrc)
		return
	}
	n, ant, layers := j.n, j.Cfg.Antennas, j.layers
	al := ant * layers
	var hR, hI, wR, wI [linalg.MaxDim * linalg.MaxDim]float64
	for slot := 0; slot < SlotsPerSubframe; slot++ {
		hs := j.hest[slot]
		out := j.weights[slot]
		for k := 0; k < n; k++ {
			for i := 0; i < al; i++ {
				v := hs[i*n+k]
				hR[i], hI[i] = real(v), imag(v)
			}
			if mrc {
				// Per-layer matched filter: w_l = h_l^H / (|h_l|^2 + nv).
				for l := 0; l < layers; l++ {
					var norm float64
					for a := 0; a < ant; a++ {
						norm += hR[a*layers+l]*hR[a*layers+l] + hI[a*layers+l]*hI[a*layers+l]
					}
					scale := 1 / (norm + solveNV)
					for a := 0; a < ant; a++ {
						wR[l*ant+a] = hR[a*layers+l] * scale
						wI[l*ant+a] = -hI[a*layers+l] * scale
					}
				}
			} else if !linalg.MMSESolve(wR[:al], wI[:al], hR[:al], hI[:al], ant, layers, solveNV) {
				// A Gram matrix that is not positive definite (a NaN channel
				// estimate) yields zero weights for this subcarrier rather
				// than failing the whole subframe.
				clear(wR[:al])
				clear(wI[:al])
			}
			for i := range al {
				out[k*al+i] = complex(wR[i], wI[i])
			}
		}
	}
}

// DataTask combines one (slot, symbol, layer) with heap scratch — the
// convenience form of the data stage.
func (j *UserJob) DataTask(i int) {
	dataStage{}.Run(nil, j, i)
}

// combineSymbol gathers the combiner input for data task i into comb
// (length n): the per-subcarrier weighted sum across antennas, plus the
// residual-CFO de-rotation. This is the frequency-domain vector the
// despread IDFT consumes.
func (j *UserJob) combineSymbol(i int, comb []complex128) {
	layers := j.layers
	slot := i / (DataSymbolsPerSlot * layers)
	rem := i % (DataSymbolsPerSlot * layers)
	sym := rem / layers
	l := rem % layers
	n := j.n
	ant := j.Cfg.Antennas
	rx := j.U.DataRx[slot][sym]
	w := j.weights[slot]
	for k := 0; k < n; k++ {
		row := w[(k*layers+l)*ant : (k*layers+l+1)*ant]
		var sum complex128
		for a := 0; a < ant; a++ {
			sum += row[a] * rx[a][k]
		}
		comb[k] = sum
	}
	if j.cfo != 0 {
		// The combiner inverted the slot reference's phase; de-rotate the
		// residual CFO accumulated between the reference and this symbol.
		delta := float64(DataSymbolPos(sym) - RefSymbolPos)
		theta := -2 * math.Pi * j.cfo * delta
		rot := complex(math.Cos(theta), math.Sin(theta))
		for k := range comb {
			comb[k] *= rot
		}
	}
}

// despreadScale undoes the transmitter's unitary 1/sqrt(N) spreading
// scale on the despread output.
func despreadScale(out []complex128, n int) {
	scale := complex(math.Sqrt(float64(n)), 0)
	for t := range out {
		out[t] *= scale
	}
}

// dataTask combines one (slot, symbol, layer) across antennas and
// transforms it back to the time domain (SC-FDMA despread) — the paper's
// "antenna combining and IFFT ... performed on each separate symbol and
// layer".
func (j *UserJob) dataTask(ws *workspace.Arena, i int) {
	if j.fp32 {
		j.dataTaskF32(ws, i)
		return
	}
	n := j.n
	m := ws.Mark()
	comb := ws.Complex(n)
	j.combineSymbol(i, comb)
	// Data task i lands at group index i: tasks and the canonical combined
	// layout share the (slot, sym, layer) order.
	out := j.combined[i*n : (i+1)*n]
	j.plan.InverseIn(ws, out, comb)
	despreadScale(out, n)
	ws.Release(m)
}

// dataBatch runs data tasks [from, to): every symbol of the range is
// gathered into contiguous scratch, then one batched IDFT despreads them
// all straight into the combined slab. Per-vector arithmetic is identical
// to dataTask, so results are bit-exact with the per-task path.
func (j *UserJob) dataBatch(ws *workspace.Arena, from, to int) {
	if j.fp32 {
		j.dataBatchF32(ws, from, to)
		return
	}
	n := j.n
	cnt := to - from
	m := ws.Mark()
	comb := ws.Complex(cnt * n)
	for i := from; i < to; i++ {
		j.combineSymbol(i, comb[(i-from)*n:(i-from+1)*n])
	}
	out := j.combined[from*n : to*n]
	j.plan.InverseBatch(ws, out, comb, cnt, n)
	despreadScale(out, n)
	ws.Release(m)
}

// Finish runs the per-user backend with heap scratch and returns the
// user's result — the convenience form of the finish stage.
func (j *UserJob) Finish() UserResult {
	finishStage{}.Run(nil, j, 0)
	return j.res
}

// finish runs the per-user backend: symbol deinterleaving, soft demapping,
// turbo decoding (pass-through or full) and the CRC check. The result is
// stored on the job. Scratch (deinterleave buffer, LLRs, decoder state)
// comes from ws; only the decoded payload bits escape to heap memory.
func (j *UserJob) finish(ws *workspace.Arena) {
	if j.fp32 {
		j.finishF32(ws)
		return
	}
	res := UserResult{UserID: j.U.Params.ID, ChannelMSE: math.NaN()}
	m := ws.Mark()
	deint := ws.Complex(len(j.combined))
	deinterleaveSymbols(j.Cfg, deint, j.combined)
	nv := j.backendNoiseVar()
	// Arena slices have capacity == length, so DemapEVM fills the buffer
	// exactly without growing it.
	llr, evm := j.U.Params.Mod.DemapEVM(ws.Float(j.format.TotalBits)[:0], deint, nv)
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
		res.ChannelMSE = j.channelMSE()
	}
	j.stampServing(&res)
	// Scratch released here; softBits intentionally survives on the arena
	// until the job-lifetime mark is released.
	j.res = res
	ws.Release(m)
}

// symbolsFinite reports whether every demapped symbol was finite, read off
// the fused EVM (a NaN or infinite symbol anywhere makes the sum so). A block
// with such symbols has not decoded, whatever the hard decisions of its NaN
// LLRs spell — all zeros, which is a codeword with a valid CRC. A finite
// symbol whose squared error overflows the sum (≳ 1e154 in float64, 1.8e19
// in float32) fails the same way, deliberately: the constellation has unit
// power, so a symbol of that size is hostile input, not signal.
func symbolsFinite(evm float64) bool {
	return !math.IsNaN(evm) && !math.IsInf(evm, 0)
}

// backendNoiseVar is the noise variance the demapper scales LLRs by: the
// weight stage's, or the genie value when finish ran without it.
func (j *UserJob) backendNoiseVar() float64 {
	if j.nv > 0 {
		return j.nv
	}
	if j.U.NoiseVar >= 1e-9 {
		return j.U.NoiseVar
	}
	return 1e-9
}

// stampServing attaches the serving-layer metadata to a finished result:
// the scheduling parameters, the transmission's redundancy version and —
// with Cfg.KeepSoftBits — a heap copy of the soft bits that outlives the
// job's arena (HARQ ledgers above the scheduler consume it).
func (j *UserJob) stampServing(res *UserResult) {
	res.Params = j.U.Params
	res.RV = j.U.RV
	if j.Cfg.KeepSoftBits {
		res.SoftBits = append([]float64(nil), j.softBits...) //ltephy:alloc-ok opt-in soft-bit export
	}
}

// channelMSE computes the normalised estimation error against ground truth,
// averaged over slots, antennas, layers and subcarriers.
func (j *UserJob) channelMSE() float64 {
	truth := j.U.Channel
	var num, den float64
	for slot := 0; slot < SlotsPerSubframe; slot++ {
		hs := j.hest[slot]
		for a := 0; a < j.Cfg.Antennas; a++ {
			for l := 0; l < j.layers; l++ {
				h := truth.Resp(a, l)
				for k := 0; k < j.n; k++ {
					d := hs[(a*j.layers+l)*j.n+k] - h[k]
					num += real(d)*real(d) + imag(d)*imag(d)
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

func cmplxConj(v complex128) complex128 { return complex(real(v), -imag(v)) }

// Process runs the whole chain serially — the paper's reference serial
// implementation used to verify parallelised versions (Section IV-D).
func Process(cfg ReceiverConfig, u *UserData) (UserResult, error) {
	return processIn(nil, &UserJob{}, cfg, u)
}

// processIn drives one user through the four stages on a single arena,
// reusing the caller's job storage. All of the user's scratch is released
// before it returns.
func processIn(ws *workspace.Arena, j *UserJob, cfg ReceiverConfig, u *UserData) (UserResult, error) {
	m := ws.Mark()
	if err := j.Init(ws, cfg, u); err != nil {
		ws.Release(m)
		return UserResult{}, err
	}
	for _, s := range j.Stages() {
		tasks := s.Tasks(j)
		if bs, ok := s.(BatchStage); ok {
			bs.RunBatch(ws, j, 0, tasks)
			continue
		}
		for i := 0; i < tasks; i++ {
			s.Run(ws, j, i)
		}
	}
	ws.Release(m)
	return j.res, nil
}

// serialArenas recycles the serial receiver's scratch arenas across
// ProcessSubframe calls, so repeated subframe processing is steady-state
// allocation-free. Concurrent callers each get their own arena.
var serialArenas = sync.Pool{New: func() any { return workspace.New() }}

// wholesale mark/bits reuse for the serial path is handled per call; the
// job itself is small and reused via this pool too.
var serialJobs = sync.Pool{New: func() any { return &UserJob{} }}

// ProcessSubframe serially processes every user of a subframe in order.
func ProcessSubframe(cfg ReceiverConfig, sf *Subframe) ([]UserResult, error) {
	ws := serialArenas.Get().(*workspace.Arena)
	defer serialArenas.Put(ws)
	j := serialJobs.Get().(*UserJob)
	// Detach the recycled payload storage: results escape to the caller,
	// so each user must decode into fresh heap bits.
	j.bits = nil
	defer serialJobs.Put(j)
	results := make([]UserResult, 0, len(sf.Users))
	for _, u := range sf.Users {
		j.bits = nil // the previous user's bits are aliased by its result
		r, err := processIn(ws, j, cfg, u)
		if err != nil {
			return nil, fmt.Errorf("subframe %d: %w", sf.Seq, err)
		}
		r.Seq = sf.Seq
		r.Cell = sf.Cell
		results = append(results, r)
	}
	return results, nil
}
