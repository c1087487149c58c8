package uplink

import (
	"fmt"
	"math"
	"sync"
	"unsafe"

	"ltephy/internal/phy/fft"
	"ltephy/internal/phy/lane"
	"ltephy/internal/phy/linalg"
	"ltephy/internal/phy/modulation"
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
// estimator/combiner registries; it is the one way to run a job, whether
// by the pool, the serial receiver or a caller with heap scratch (a nil
// arena).
//
// Tasks within a stage may run concurrently on different goroutines; the
// stage boundaries are barriers the caller must enforce (the work-stealing
// runtime in internal/sched does, and the serial receiver trivially does).
//
// One receiver, two widths: every stage kernel is written once, generic
// over the element width, on split re/im planes (planes[F] below). Cfg.
// Precision picks the instance at Init — float64, the default and the
// accuracy oracle, or float32 — and each stage entry dispatches to it once.
// The received samples are packed to planes at Init and the demapper
// writes float64 LLRs, so the decoder, HARQ and SoftBits are the same at
// both widths.
//
// Memory: a job initialised with Init(ws, ...) carves its job-lifetime
// buffers (packed samples, channel estimates, weights, combined symbols)
// from ws; they are valid until the caller releases the mark enclosing the
// job. Per-task scratch comes from the arena passed to each Stage.Run call
// — the executing worker's, which need not be the one that owns the job's
// buffers; the demapped soft bits are job-lifetime too. Decoded payload
// bits are heap memory the next Init recycles, so a result's Bits, like
// SoftBits, are borrowed: a caller that keeps them past that copies them.
type UserJob struct {
	Cfg ReceiverConfig
	U   *UserData

	n      int // subcarriers
	layers int
	format TransportFormat
	// window is the channel-estimation time-domain window width.
	window int

	// fp32 selects the float32 instance; f64 and f32 hold the planes of
	// whichever instance Init set up (the other stays zero).
	fp32 bool
	f64  planes[float64]
	f32  planes[float32]

	// nv is the noise variance the combiner and demapper use: the genie
	// value from UserData, or (with Cfg.EstimateNoise) the slot-difference
	// estimate computed in the weight stage.
	nv float64
	// softBits are the demapped (and descrambled) LLRs the finish stage
	// produced — the input HARQ combining needs for retransmission
	// soft-combining. Carved from the job's arena when it has one.
	softBits []float64
	// cfo is the estimated carrier frequency offset (fraction of the
	// subcarrier spacing), resolved in the weight stage when Cfg.CorrectCFO.
	cfo float64

	// res is the finished result; bits is its reusable heap backing for the
	// decoded payload. Re-initialising a job recycles bits, so a result's
	// Bits are only valid until the job's next run.
	res  UserResult
	bits []uint8

	// par, when set (after Init — Init clears it), lets the turbo
	// decoder fan one code block's trellis windows out across scheduler
	// workers instead of serializing a large block on one core.
	par *turbo.Fanout
}

// planes is the job's state at element width F, every buffer a pair of
// split re/im planes. Weights are stored one contiguous subcarrier plane
// per (layer, antenna) pair, [(l*ant+a)*n + k], so combining is a
// stride-1 lane.MulAcc per antenna; the solve stage scatters into that
// layout, its cost dominated by the per-subcarrier Cholesky anyway.
type planes[F workspace.Float] struct {
	// plan is the shared FFT plan for the allocation width, resolved once
	// at Init so per-symbol/per-antenna loops never repeat the cache
	// lookup.
	plan *fft.SplitPlan[F]

	layerRef []lane.Vec[F] // per-layer DMRS planes; shared, read-only

	// refRe/refIm hold the packed reference symbols,
	// [(slot*ant + a)*n + k].
	refRe, refIm []F
	// dataRe/dataIm hold the packed data symbols,
	// [((slot*DataSymbolsPerSlot + sym)*ant + a)*n + k].
	dataRe, dataIm []F
	// hestRe/hestIm hold both slots' channel estimates,
	// [slot*al*n + (a*layers+l)*n + k]; batched FFTs write straight in.
	hestRe, hestIm []F
	// wRe/wIm[slot] hold combining weights, [(l*ant+a)*n + k].
	wRe, wIm [SlotsPerSubframe][]F
	// combRe/combIm hold despread time-domain symbols, [g*n + t] with
	// g = (slot*DataSymbolsPerSlot + sym)*layers + layer.
	combRe, combIm []F
}

// ref returns the packed reference-symbol planes for (slot, antenna).
func (p *planes[F]) ref(slot, a, ant, n int) (re, im []F) {
	o := (slot*ant + a) * n
	return p.refRe[o : o+n], p.refIm[o : o+n]
}

// data returns the packed data-symbol planes for (slot, sym, antenna).
func (p *planes[F]) data(slot, sym, a, ant, n int) (re, im []F) {
	o := ((slot*DataSymbolsPerSlot+sym)*ant + a) * n
	return p.dataRe[o : o+n], p.dataIm[o : o+n]
}

// hest returns one slot's channel-estimate planes.
func (p *planes[F]) hest(slot, al, n int) (re, im []F) {
	o := slot * al * n
	return p.hestRe[o : o+al*n], p.hestIm[o : o+al*n]
}

// SetParallel installs the window fan-out the finish stage hands to the
// turbo decoder. Call after Init; a nil fan-out (or none) decodes
// serially with identical results.
func (j *UserJob) SetParallel(f *turbo.Fanout) { j.par = f }

// SoftBits returns the demapped, descrambled LLR stream of the whole
// allocation. Valid after the finish stage; HARQProcess.Absorb consumes
// it. When the job ran on an arena the slice is carved from it and must
// be consumed before the mark enclosing the job is released.
func (j *UserJob) SoftBits() []float64 { return j.softBits }

// Result returns the user result the finish stage produced.
func (j *UserJob) Result() UserResult { return j.res }

// dmrsKey identifies a cached set of reference planes by allocation width
// and element width in bytes.
type dmrsKey struct {
	n     int
	width uintptr
}

// dmrsCache shares the per-layer reference sequences across jobs: they are
// a pure function of the allocation width, and user allocations repeat
// heavily across subframes. Each entry holds all MaxLayers layers as
// []lane.Vec[F] for the key's width. RWMutex-guarded so the per-job lookup
// doesn't box the key and stays allocation-free.
var (
	dmrsMu    sync.RWMutex
	dmrsCache = map[dmrsKey]any{}
)

// layerRefs is a double-checked RWMutex cache: steady state is one
// uncontended RLock over a map read; the write lock is first-sight-only.
//
//ltephy:blocking-ok
func layerRefs[F workspace.Float](n int) []lane.Vec[F] {
	var z F
	key := dmrsKey{n, unsafe.Sizeof(z)}
	dmrsMu.RLock()
	cached := dmrsCache[key]
	dmrsMu.RUnlock()
	if cached != nil {
		return cached.([]lane.Vec[F])
	}
	return storeLayerRefs[F](key, n)
}

// storeLayerRefs builds and caches the reference planes of width n.
//
//ltephy:coldpath — table construction on a first sight of the width.
func storeLayerRefs[F workspace.Float](key dmrsKey, n int) []lane.Vec[F] {
	base := sequence.BaseDMRS(n)
	refs := make([]lane.Vec[F], sequence.MaxLayers)
	for l := range refs {
		refs[l] = lane.NewVecIn[F](nil, n)
		lane.Pack(refs[l].Re, refs[l].Im, sequence.LayerDMRS(base, l))
	}
	dmrsMu.Lock()
	if cached, ok := dmrsCache[key]; ok {
		refs = cached.([]lane.Vec[F])
	} else {
		dmrsCache[key] = refs
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
		return fmt.Errorf("uplink: user %d: %d layers exceed %d antennas", //ltephy:alloc-ok — rejects the input
			u.Params.ID, u.Params.Layers, cfg.Antennas)
	}
	if got := u.Antennas(); got != cfg.Antennas {
		return fmt.Errorf("uplink: user %d: data captured with %d antennas, receiver configured for %d", //ltephy:alloc-ok — rejects the input
			u.Params.ID, got, cfg.Antennas)
	}
	n := u.Params.Subcarriers()
	for slot := 0; slot < SlotsPerSubframe; slot++ {
		for a := 0; a < cfg.Antennas; a++ {
			if len(u.RefRx[slot][a]) != n {
				return fmt.Errorf("uplink: user %d: ref symbol slot %d antenna %d has %d subcarriers, want %d", //ltephy:alloc-ok — rejects the input
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
	j.fp32 = cfg.Precision == PrecisionFloat32
	if j.fp32 {
		j.f32.init(j, ws)
	} else {
		j.f64.init(j, ws)
	}
	return nil
}

// init carves the job-lifetime planes from ws and packs the received
// samples — the single complex128 -> planes conversion of the chain.
//
//ltephy:owns-scratch
func (p *planes[F]) init(j *UserJob, ws *workspace.Arena) {
	n, ant := j.n, j.Cfg.Antennas
	p.plan = fft.GetSplit[F](n)
	p.layerRef = layerRefs[F](n)[:j.layers]

	p.refRe = workspace.Floats[F](ws, SlotsPerSubframe*ant*n)
	p.refIm = workspace.Floats[F](ws, SlotsPerSubframe*ant*n)
	p.dataRe = workspace.Floats[F](ws, SlotsPerSubframe*DataSymbolsPerSlot*ant*n)
	p.dataIm = workspace.Floats[F](ws, SlotsPerSubframe*DataSymbolsPerSlot*ant*n)
	for slot := 0; slot < SlotsPerSubframe; slot++ {
		for a := 0; a < ant; a++ {
			re, im := p.ref(slot, a, ant, n)
			lane.Pack(re, im, j.U.RefRx[slot][a])
			for sym := 0; sym < DataSymbolsPerSlot; sym++ {
				re, im = p.data(slot, sym, a, ant, n)
				lane.Pack(re, im, j.U.DataRx[slot][sym][a])
			}
		}
	}

	al := ant * j.layers
	p.hestRe = workspace.Floats[F](ws, SlotsPerSubframe*al*n)
	p.hestIm = workspace.Floats[F](ws, SlotsPerSubframe*al*n)
	for slot := 0; slot < SlotsPerSubframe; slot++ {
		p.wRe[slot] = workspace.Floats[F](ws, n*al)
		p.wIm[slot] = workspace.Floats[F](ws, n*al)
	}
	p.combRe = workspace.Floats[F](ws, DataSymbolsPerSubframe*j.layers*n)
	p.combIm = workspace.Floats[F](ws, DataSymbolsPerSubframe*j.layers*n)
}

// Format returns the transport format the job decodes against.
func (j *UserJob) Format() TransportFormat { return j.format }

// NumChanEstTasks returns antennas * layers — the paper's "up to 16 tasks".
func (j *UserJob) NumChanEstTasks() int { return j.Cfg.Antennas * j.layers }

// NumDataTasks returns dataSymbols * layers — the paper's "up to 24 tasks"
// per slot, i.e. 12*layers for the whole subframe.
func (j *UserJob) NumDataTasks() int { return DataSymbolsPerSubframe * j.layers }

// chanEstTask estimates the channel for one (antenna, layer) pair across
// both slots: matched filter against the layer's reference sequence (unit
// modulus, so conjugate multiply inverts the known sequence and leaves H
// plus the other layers' responses shifted to their own windows), IFFT to
// the time domain, windowing around the layer's cyclic shift, FFT back
// (the paper's Fig. 3 channel-estimation chain). ls selects the raw
// least-squares variant (matched filter only). The two slots run as one
// FFT batch, landing directly in the hest slab through the strided
// destination.
func (j *UserJob) chanEstTask(ws *workspace.Arena, i int, ls bool) {
	if j.fp32 {
		j.f32.chanEstTask(j, ws, i, ls)
		return
	}
	j.f64.chanEstTask(j, ws, i, ls)
}

func (p *planes[F]) chanEstTask(j *UserJob, ws *workspace.Arena, i int, ls bool) {
	a := i / j.layers
	l := i % j.layers
	n, ant := j.n, j.Cfg.Antennas
	ref := p.layerRef[l]
	o := (a*j.layers + l) * n
	if ls {
		// Raw least-squares: no denoising, no layer separation.
		for slot := 0; slot < SlotsPerSubframe; slot++ {
			hre, him := p.hest(slot, ant*j.layers, n)
			rxRe, rxIm := p.ref(slot, a, ant, n)
			lane.MulConj(hre[o:o+n], him[o:o+n], rxRe, rxIm, ref.Re, ref.Im)
		}
		return
	}
	m := ws.Mark()
	mfRe := workspace.Floats[F](ws, SlotsPerSubframe*n)
	mfIm := workspace.Floats[F](ws, SlotsPerSubframe*n)
	tdRe := workspace.Floats[F](ws, SlotsPerSubframe*n)
	tdIm := workspace.Floats[F](ws, SlotsPerSubframe*n)
	for slot := 0; slot < SlotsPerSubframe; slot++ {
		rxRe, rxIm := p.ref(slot, a, ant, n)
		lane.MulConj(mfRe[slot*n:(slot+1)*n], mfIm[slot*n:(slot+1)*n], rxRe, rxIm, ref.Re, ref.Im)
	}
	p.plan.InverseBatch(ws, tdRe, tdIm, mfRe, mfIm, SlotsPerSubframe, n)
	// Window: this layer's impulse response occupies [0, window).
	for slot := 0; slot < SlotsPerSubframe; slot++ {
		clear(tdRe[slot*n+j.window : (slot+1)*n])
		clear(tdIm[slot*n+j.window : (slot+1)*n])
	}
	aln := ant * j.layers * n
	p.plan.ForwardBatchStrided(ws, p.hestRe[o:], p.hestIm[o:], tdRe, tdIm, SlotsPerSubframe, aln, n)
	ws.Release(m)
}

// chanEstBatch runs channel-estimation tasks [from, to) as slot-wide FFT
// batches: per slot, matched-filter every (antenna, layer) of the range
// into contiguous scratch, one batched IFFT, window, one batched FFT
// straight into the hest slab. Per-vector arithmetic is identical to
// chanEstTask, so results are bit-exact with the per-task path.
func (j *UserJob) chanEstBatch(ws *workspace.Arena, from, to int, ls bool) {
	if ls {
		for i := from; i < to; i++ {
			j.chanEstTask(ws, i, true)
		}
		return
	}
	if j.fp32 {
		j.f32.chanEstBatch(j, ws, from, to)
		return
	}
	j.f64.chanEstBatch(j, ws, from, to)
}

func (p *planes[F]) chanEstBatch(j *UserJob, ws *workspace.Arena, from, to int) {
	n, ant := j.n, j.Cfg.Antennas
	cnt := to - from
	m := ws.Mark()
	mfRe := workspace.Floats[F](ws, cnt*n)
	mfIm := workspace.Floats[F](ws, cnt*n)
	tdRe := workspace.Floats[F](ws, cnt*n)
	tdIm := workspace.Floats[F](ws, cnt*n)
	for slot := 0; slot < SlotsPerSubframe; slot++ {
		for i := from; i < to; i++ {
			rxRe, rxIm := p.ref(slot, i/j.layers, ant, n)
			ref := p.layerRef[i%j.layers]
			o := (i - from) * n
			lane.MulConj(mfRe[o:o+n], mfIm[o:o+n], rxRe, rxIm, ref.Re, ref.Im)
		}
		p.plan.InverseBatch(ws, tdRe, tdIm, mfRe, mfIm, cnt, n)
		for i := 0; i < cnt; i++ {
			clear(tdRe[i*n+j.window : (i+1)*n])
			clear(tdIm[i*n+j.window : (i+1)*n])
		}
		hre, him := p.hest(slot, ant*j.layers, n)
		p.plan.ForwardBatch(ws, hre[from*n:to*n], him[from*n:to*n], tdRe, tdIm, cnt, n)
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
		return j.f32.estimateNoise(j)
	}
	return j.f64.estimateNoise(j)
}

func (p *planes[F]) estimateNoise(j *UserJob) float64 {
	al := j.Cfg.Antennas * j.layers
	h0re, h0im := p.hest(0, al, j.n)
	h1re, h1im := p.hest(1, al, j.n)
	count := len(h0re)
	if count == 0 {
		return 1e-12
	}
	// Var(H0-H1) = 2 * windowed noise variance = 2 * sigma^2 * W/N.
	sum := lane.SumDiffMag2(h0re, h0im, h1re, h1im)
	est := (sum / float64(count)) / 2 * float64(j.n) / float64(j.window)
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
		return j.f32.estimateCFO(j)
	}
	return j.f64.estimateCFO(j)
}

func (p *planes[F]) estimateCFO(j *UserJob) float64 {
	al := j.Cfg.Antennas * j.layers
	h0re, h0im := p.hest(0, al, j.n)
	h1re, h1im := p.hest(1, al, j.n)
	re, im := lane.DotConj(h1re, h1im, h0re, h0im)
	return math.Atan2(im, re) / (2 * math.Pi * float64(SymbolsPerSlot))
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

// computeLinearWeights fills the weight planes for the MMSE family:
// solveNV is the diagonal loading of the Gram matrix (the noise variance
// for MMSE, a numerical guard for ZF), and mrc selects the per-layer
// matched filter instead of the joint solve.
func (j *UserJob) computeLinearWeights(solveNV float64, mrc bool) {
	if j.fp32 {
		j.f32.computeLinearWeights(j, solveNV, mrc)
		return
	}
	j.f64.computeLinearWeights(j, solveNV, mrc)
}

// computeLinearWeights gathers each subcarrier's channel matrix from the
// hest planes into stack arrays, solves by Cholesky (or runs the per-layer
// MRC matched filter), and scatters the rows into the per-(layer, antenna)
// plane layout. All scratch is on the stack — no arena marks, no
// allocation.
func (p *planes[F]) computeLinearWeights(j *UserJob, solveNV float64, mrc bool) {
	n, ant, layers := j.n, j.Cfg.Antennas, j.layers
	al := ant * layers
	nv := F(solveNV)
	var hR, hI, wR, wI [linalg.MaxDim * linalg.MaxDim]F
	for slot := 0; slot < SlotsPerSubframe; slot++ {
		hre, him := p.hest(slot, al, n)
		outRe, outIm := p.wRe[slot], p.wIm[slot]
		for k := 0; k < n; k++ {
			for i := 0; i < al; i++ {
				hR[i], hI[i] = hre[i*n+k], him[i*n+k]
			}
			if mrc {
				// Per-layer matched filter: w_l = h_l^H / (|h_l|^2 + nv).
				for l := 0; l < layers; l++ {
					var norm F
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
				// A Gram matrix that is not positive definite (a NaN channel
				// estimate) yields zero weights for this subcarrier rather
				// than failing the whole subframe.
				clear(wR[:al])
				clear(wI[:al])
			}
			for i := 0; i < al; i++ {
				outRe[i*n+k] = wR[i]
				outIm[i*n+k] = wI[i]
			}
		}
	}
}

// combineSymbol accumulates the combiner output for data task i into the
// (zeroed-on-entry) comb planes: the per-subcarrier weighted sum across
// antennas, one stride-1 lane.MulAcc per antenna, then the residual-CFO
// de-rotation. This is the frequency-domain vector the despread IDFT
// consumes.
func (p *planes[F]) combineSymbol(j *UserJob, i int, combRe, combIm []F) {
	layers := j.layers
	slot := i / (DataSymbolsPerSlot * layers)
	rem := i % (DataSymbolsPerSlot * layers)
	sym := rem / layers
	l := rem % layers
	n, ant := j.n, j.Cfg.Antennas
	wre, wim := p.wRe[slot], p.wIm[slot]
	for a := 0; a < ant; a++ {
		o := (l*ant + a) * n
		rxRe, rxIm := p.data(slot, sym, a, ant, n)
		lane.MulAcc(combRe, combIm, wre[o:o+n], wim[o:o+n], rxRe, rxIm)
	}
	if j.cfo != 0 {
		// The combiner inverted the slot reference's phase; de-rotate the
		// residual CFO accumulated between the reference and this symbol.
		delta := float64(DataSymbolPos(sym) - RefSymbolPos)
		theta := -2 * math.Pi * j.cfo * delta
		lane.ScaleC(F(math.Cos(theta)), F(math.Sin(theta)), combRe, combIm)
	}
}

// dataTask combines one (slot, symbol, layer) across antennas and
// transforms it back to the time domain (SC-FDMA despread) — the paper's
// "antenna combining and IFFT ... performed on each separate symbol and
// layer" — then undoes the transmitter's unitary 1/sqrt(N) spreading
// scale.
func (j *UserJob) dataTask(ws *workspace.Arena, i int) { j.dataBatch(ws, i, i+1) }

// dataBatch runs data tasks [from, to): every symbol of the range is
// gathered into contiguous scratch, then one batched IDFT despreads them
// all straight into the combined slab. Per-vector arithmetic is identical
// to a single task's, so results are bit-exact with the per-task path.
func (j *UserJob) dataBatch(ws *workspace.Arena, from, to int) {
	if j.fp32 {
		j.f32.dataBatch(j, ws, from, to)
		return
	}
	j.f64.dataBatch(j, ws, from, to)
}

func (p *planes[F]) dataBatch(j *UserJob, ws *workspace.Arena, from, to int) {
	n := j.n
	cnt := to - from
	m := ws.Mark()
	combRe := workspace.Floats[F](ws, cnt*n)
	combIm := workspace.Floats[F](ws, cnt*n)
	for i := from; i < to; i++ {
		o := (i - from) * n
		p.combineSymbol(j, i, combRe[o:o+n], combIm[o:o+n])
	}
	// Data task i lands at group index i: tasks and the canonical combined
	// layout share the (slot, sym, layer) order.
	outRe := p.combRe[from*n : to*n]
	outIm := p.combIm[from*n : to*n]
	p.plan.InverseBatch(ws, outRe, outIm, combRe, combIm, cnt, n)
	lane.Scale(F(math.Sqrt(float64(n))), outRe, outIm)
	ws.Release(m)
}

// finish runs the per-user backend: symbol deinterleaving, soft demapping,
// turbo decoding (pass-through or full) and the CRC check. The result is
// stored on the job. Scratch (deinterleave buffer, LLRs, decoder state)
// comes from ws; only the decoded payload bits escape to heap memory.
func (j *UserJob) finish(ws *workspace.Arena) {
	if j.fp32 {
		j.f32.finish(j, ws)
		return
	}
	j.f64.finish(j, ws)
}

// finish deinterleaves both planes, runs the fused demap + EVM at width F
// into float64 LLRs, then descrambles, decodes and checks the CRC.
//
// The LLRs are carved below the stage's scratch mark, so they live until
// the mark enclosing the job is released: they are the job's soft bits.
//
//ltephy:owns-scratch
func (p *planes[F]) finish(j *UserJob, ws *workspace.Arena) {
	res := UserResult{UserID: j.U.Params.ID, ChannelMSE: math.NaN()}
	soft := ws.Float(j.format.TotalBits)
	m := ws.Mark()
	total := len(p.combRe)
	deintRe := workspace.Floats[F](ws, total)
	deintIm := workspace.Floats[F](ws, total)
	deinterleaveSymbols(j.Cfg, deintRe, p.combRe)
	deinterleaveSymbols(j.Cfg, deintIm, p.combIm)
	nv := j.backendNoiseVar()
	// Arena slices have capacity == length, so the demapper fills the
	// buffer exactly without growing it.
	llr, evm := modulation.DemapEVMPlanes(j.U.Params.Mod, soft[:0], deintRe, deintIm, F(nv))
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
	res.Params = j.U.Params
	res.RV = j.U.RV
	if j.U.Channel != nil {
		res.ChannelMSE = p.channelMSE(j)
	}
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

// channelMSE computes the normalised estimation error against ground truth,
// averaged over slots, antennas, layers and subcarriers, widening each
// estimate element for the float64 accumulation.
func (p *planes[F]) channelMSE(j *UserJob) float64 {
	truth := j.U.Channel
	al := j.Cfg.Antennas * j.layers
	var num, den float64
	for slot := 0; slot < SlotsPerSubframe; slot++ {
		hre, him := p.hest(slot, al, j.n)
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

// Process runs the whole chain serially — the paper's reference serial
// implementation used to verify parallelised versions (Section IV-D). The
// result owns its Bits; its SoftBits are nil.
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

// serialPair is an arena and the job run on it: the pair a pool worker
// owns, recycled across ProcessSubframe calls so that repeated subframe
// processing allocates only the results it returns. Concurrent callers
// each get their own pair.
type serialPair struct {
	ws  workspace.Arena
	job UserJob
}

var serialPairs = sync.Pool{New: func() any { return new(serialPair) }}

// ProcessSubframe serially processes every user of a subframe in order.
// The results own their Bits; their SoftBits are nil.
func ProcessSubframe(cfg ReceiverConfig, sf *Subframe) ([]UserResult, error) {
	p := serialPairs.Get().(*serialPair)
	defer serialPairs.Put(p)
	results := make([]UserResult, 0, len(sf.Users))
	for _, u := range sf.Users {
		p.job.bits = nil // results escape: each user decodes into fresh bits
		r, err := processIn(&p.ws, &p.job, cfg, u)
		if err != nil {
			return nil, fmt.Errorf("subframe %d: %w", sf.Seq, err)
		}
		r.Seq = sf.Seq
		r.Cell = sf.Cell
		results = append(results, r)
	}
	return results, nil
}
