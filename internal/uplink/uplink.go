// Package uplink implements the per-user baseband processing chain of an
// LTE base-station uplink receiver — the core of the ISPASS 2012 "LTE
// Uplink Receiver PHY Benchmark" paper (Fig. 3):
//
//	channel estimation (matched filter → IFFT → window → FFT)
//	combiner-weight calculation (MMSE, all antennas × layers)
//	antenna combining + IFFT per (data symbol, layer)
//	deinterleave → soft demap → turbo decode → CRC
//
// Processing is organised as a UserJob whose stages expose exactly the task
// granularity the paper parallelises: antennas×layers channel-estimation
// tasks and dataSymbols×layers demodulation tasks, with the weight
// computation and the backend as serial per-user sections. The serial
// reference receiver (Process) runs the same stages in order and is used to
// verify parallel execution, mirroring the paper's Section IV-D.
package uplink

import (
	"fmt"

	"ltephy/internal/phy/channel"
	"ltephy/internal/phy/modulation"
	"ltephy/internal/phy/sequence"
)

// LTE numerology fixed by the standard and used throughout the paper.
const (
	// SubcarriersPerPRB is the width of a physical resource block.
	SubcarriersPerPRB = 12
	// SlotsPerSubframe and SymbolsPerSlot define the time grid: a 1 ms
	// subframe is two 0.5 ms slots of seven SC-FDMA symbols.
	SlotsPerSubframe = 2
	SymbolsPerSlot   = 7
	// DataSymbolsPerSlot: three data symbols, the reference symbol, then
	// three more data symbols (paper Section II-A).
	DataSymbolsPerSlot     = 6
	DataSymbolsPerSubframe = SlotsPerSubframe * DataSymbolsPerSlot
	// RefSymbolPos is the reference symbol's position within a slot.
	RefSymbolPos = 3
	// MinPRB is the smallest allocation a scheduled user may have
	// (paper Section V-A: "a user has to have at least two PRBs").
	MinPRB = 2
	// MaxPRBPool is the total pool of schedulable PRBs per subframe in the
	// paper's parameter model (MAX_PRB in Fig. 6).
	MaxPRBPool = 200
	// MaxUsers is the maximum number of users schedulable in one subframe.
	MaxUsers = 10
	// DefaultAntennas is the receive antenna count the paper evaluates
	// ("for a four-antenna receiver...").
	DefaultAntennas = 4
	// MaxLayers re-exports the spatial-multiplexing limit.
	MaxLayers = sequence.MaxLayers
)

// DataSymbolPos maps a data-symbol index (0..5) to its position within the
// seven-symbol slot, skipping the reference at RefSymbolPos.
func DataSymbolPos(sym int) int {
	if sym < RefSymbolPos {
		return sym
	}
	return sym + 1
}

// UserParams are the per-user scheduling parameters that define a
// subframe's workload (paper Section IV): PRB count, layers, modulation.
type UserParams struct {
	ID     int
	PRB    int
	Layers int
	Mod    modulation.Scheme
}

// Subcarriers returns the allocation width in subcarriers.
func (p UserParams) Subcarriers() int { return p.PRB * SubcarriersPerPRB }

// Validate checks the parameters against the standard's limits. It is a
// guard: it allocates only on the reject path, where the caller abandons
// the work anyway.
//
//ltephy:coldpath — error construction happens only for invalid params.
func (p UserParams) Validate() error {
	switch {
	case p.PRB < MinPRB || p.PRB > MaxPRBPool:
		return fmt.Errorf("uplink: user %d: PRB count %d outside [%d, %d]", p.ID, p.PRB, MinPRB, MaxPRBPool)
	case p.Layers < 1 || p.Layers > MaxLayers:
		return fmt.Errorf("uplink: user %d: %d layers outside [1, %d]", p.ID, p.Layers, MaxLayers)
	case p.Mod != modulation.QPSK && p.Mod != modulation.QAM16 && p.Mod != modulation.QAM64:
		return fmt.Errorf("uplink: user %d: unknown modulation %d", p.ID, int(p.Mod))
	}
	return nil
}

// UserData carries one user's frequency-domain receive samples for one
// subframe (the frontend — filter, CP removal, FFT — is excluded from the
// benchmark, paper Section IV) plus optional ground truth for verification.
type UserData struct {
	Params UserParams
	// NoiseVar is the per-subcarrier noise variance the receiver assumes
	// (genie-aided, as is usual in benchmarks).
	NoiseVar float64
	// RV is the redundancy version this transmission was rate-matched
	// with (0 for a first transmission; retransmissions follow
	// RVForRound). Carried through to UserResult so HARQ soft-combining
	// above the receiver can accumulate at the right offsets.
	RV uint8
	// RefRx[slot][antenna][k]: the received reference symbol.
	RefRx [SlotsPerSubframe][][]complex128
	// DataRx[slot][sym][antenna][k]: the six data symbols per slot.
	DataRx [SlotsPerSubframe][DataSymbolsPerSlot][][]complex128

	// Ground truth, present when the synthetic transmitter produced the
	// data; nil/empty otherwise.
	Payload []uint8       // transmitted payload bits (before CRC attach)
	Channel *channel.MIMO // true channel realisation
}

// Antennas returns the receive antenna count of the captured data.
func (u *UserData) Antennas() int { return len(u.RefRx[0]) }

// Subframe is the unit of work dispatched every DELTA milliseconds: the
// scheduled users and their input data.
type Subframe struct {
	Seq int64
	// Cell identifies the serving cell the subframe belongs to (0 for
	// single-cell callers). Carried through to each UserResult so KPI
	// accounting can attribute outcomes when pools multiplex cells.
	Cell  uint16
	Users []*UserData
}

// TotalPRB sums the PRB allocations of all scheduled users.
func (s *Subframe) TotalPRB() int {
	total := 0
	for _, u := range s.Users {
		total += u.Params.PRB
	}
	return total
}

// UserResult is the outcome of processing one user in one subframe.
type UserResult struct {
	UserID int
	Seq    int64
	// Cell is the serving cell copied from the subframe.
	Cell uint16
	// Params are the scheduling parameters the user was decoded with
	// (Params.ID == UserID). HARQ combining above the receiver needs them
	// to reconstruct the transport format for soft-buffer state.
	Params UserParams
	// RV is the redundancy version copied from UserData.RV.
	RV uint8
	// SoftBits is the demapped, descrambled LLR stream, the input
	// HARQProcess.Absorb consumes. The pool's results carry it, borrowed
	// from the job's arena until OnResult returns; the serial receiver's
	// (Process, ProcessSubframe) leave it nil.
	SoftBits []float64
	// CRCOK reports whether the transport-block CRC24A verified and the
	// equalised symbols it was decoded from were finite (EVM is finite): a
	// NaN or Inf symbol — or one so large its squared error overflows —
	// fails the block even if the hard decisions carry a valid CRC.
	CRCOK bool
	// Bits is the decoded payload (excluding CRC). The serial receiver's
	// results own it; the pool's are borrowed until OnResult returns, and
	// a consumer that keeps them copies them.
	Bits []uint8
	// ChannelMSE is the mean squared error of the channel estimate against
	// the true channel, when ground truth was available (else NaN).
	ChannelMSE float64
	// NoiseVarEst is the noise variance the receiver used: the genie value
	// or, with ReceiverConfig.EstimateNoise, the slot-difference estimate.
	NoiseVarEst float64
	// EVM is the root-mean-square error-vector magnitude of the equalised
	// constellation (0.1 = -20 dB): the standard link-quality measure.
	EVM float64
	// TurboHalfIters is the realized turbo half-iteration count summed
	// over the user's code blocks (0 outside TurboFull mode): the
	// CRC-gated early-termination outcome that iteration-aware cost
	// pricing consumes.
	TurboHalfIters int
}

// Equal reports whether two results are bit-identical — the paper's
// serial-vs-parallel verification criterion (Section IV-D).
func (r UserResult) Equal(o UserResult) bool {
	if r.UserID != o.UserID || r.Seq != o.Seq || r.CRCOK != o.CRCOK ||
		r.TurboHalfIters != o.TurboHalfIters || len(r.Bits) != len(o.Bits) {
		return false
	}
	for i := range r.Bits {
		if r.Bits[i] != o.Bits[i] {
			return false
		}
	}
	return true
}

// CombinerType selects the antenna-combining algorithm — the paper's
// benchmark is "organized as a software pipeline in which modules can
// easily be replaced to model different algorithms"; this is that seam for
// the combiner stage.
type CombinerType int

const (
	// CombinerMMSE is the default: W = (H^H H + nv I)^{-1} H^H, the
	// noise-vs-interference optimal linear combiner.
	CombinerMMSE CombinerType = iota
	// CombinerZF is zero-forcing: the MMSE solution with the noise term
	// dropped — perfect interference suppression, amplified noise in
	// poorly conditioned channels.
	CombinerZF
	// CombinerMRC is maximum-ratio combining per layer: matched filtering
	// that ignores inter-layer interference entirely. Optimal for a single
	// layer, degenerate for spatial multiplexing — kept as the instructive
	// baseline.
	CombinerMRC
	// CombinerIRC is interference rejection combining: the noise-plus-
	// interference spatial covariance is estimated from the reference-
	// symbol residuals and whitened into the MMSE solution, suppressing
	// spatially coloured inter-cell interference white-noise MMSE cannot.
	CombinerIRC
)

func (c CombinerType) String() string {
	switch c {
	case CombinerZF:
		return "ZF"
	case CombinerMRC:
		return "MRC"
	case CombinerIRC:
		return "IRC"
	default:
		return "MMSE"
	}
}

// ChanEstType selects the channel-estimation algorithm.
type ChanEstType int

const (
	// ChanEstWindowed is the paper's chain: matched filter, IFFT, time-
	// domain window, FFT — denoises and separates cyclic-shifted layers.
	ChanEstWindowed ChanEstType = iota
	// ChanEstLS is the raw least-squares estimate (matched filter output
	// alone): cheaper, but keeps the full noise floor and, with multiple
	// layers, their mutual interference. Usable only for single-layer
	// users; provided to quantify what the windowing buys.
	ChanEstLS
)

func (c ChanEstType) String() string {
	if c == ChanEstLS {
		return "LS"
	}
	return "windowed"
}

// Precision selects the arithmetic width of the receiver hot path.
type Precision int

// The receiver is one body of code, generic over the element width, on
// split re/im planes (internal/phy/lane); Precision picks its instance.
// Either way received samples are packed to planes at Init and the
// demapper writes float64 LLRs, so schedulers, HARQ and the transport
// layer see one interface.
const (
	// PrecisionFloat64 is the default: the float64 instance, the accuracy
	// oracle the float32 one is validated against.
	PrecisionFloat64 Precision = iota
	// PrecisionFloat32 runs the hot path (channel estimation, weight
	// solve, combining, despreading, demapping) at float32. Validated
	// against the float64 instance across nPRB 2..200 with pinned EVM and
	// LLR bounds.
	PrecisionFloat32
)

func (p Precision) String() string {
	if p == PrecisionFloat32 {
		return "float32"
	}
	return "float64"
}

// TurboMode selects the final decoding stage.
type TurboMode int

const (
	// TurboPassthrough reproduces the paper: "the call to perform turbo
	// decoding simply passes the data through" (hard decision on LLRs).
	TurboPassthrough TurboMode = iota
	// TurboFull runs the real 3GPP turbo decoder (internal/phy/turbo),
	// exercising the paper's module-replacement extensibility.
	TurboFull
)

func (m TurboMode) String() string {
	if m == TurboFull {
		return "full"
	}
	return "passthrough"
}

// ReceiverConfig selects the receiver variant. The zero value is NOT valid;
// use DefaultConfig.
type ReceiverConfig struct {
	Antennas        int
	Turbo           TurboMode
	TurboIterations int // used only in TurboFull mode
	// CodeRate, when nonzero, enables rate matching in TurboFull mode: the
	// payload is CodeRate*capacity and the codeword is punctured/repeated
	// to fill the allocation exactly. Zero keeps the mother-rate codeword
	// with zero padding.
	CodeRate float64
	// Combiner and ChanEst swap the corresponding pipeline modules.
	Combiner CombinerType
	ChanEst  ChanEstType
	// Precision selects the hot-path arithmetic width; the zero value is
	// the float64 oracle.
	Precision Precision
	// EstimateNoise makes the receiver estimate the noise variance from
	// the out-of-window residual of the channel-estimation IFFT instead of
	// trusting UserData.NoiseVar (removing the genie assumption).
	EstimateNoise bool
	// CorrectCFO estimates the residual carrier frequency offset from the
	// inter-slot rotation of the channel estimates and de-rotates the data
	// symbols accordingly.
	CorrectCFO bool
	// Scramble enables bit scrambling with the user-specific Gold sequence
	// (TS 36.211 §5.3.1) between coding and modulation.
	Scramble bool
	// InterleaverColumns configures the symbol block interleaver.
	InterleaverColumns int
}

// DefaultConfig returns the paper-faithful configuration: four receive
// antennas and pass-through turbo decoding.
func DefaultConfig() ReceiverConfig {
	return ReceiverConfig{
		Antennas:           DefaultAntennas,
		Turbo:              TurboPassthrough,
		TurboIterations:    5,
		InterleaverColumns: 32,
	}
}

// Validate checks the configuration.
//
//ltephy:coldpath — error construction happens only for an invalid config.
func (c ReceiverConfig) Validate() error {
	switch {
	case c.Antennas < 1 || c.Antennas > 8:
		return fmt.Errorf("uplink: antenna count %d outside [1, 8]", c.Antennas)
	case c.Turbo == TurboFull && c.TurboIterations < 1:
		return fmt.Errorf("uplink: turbo iterations %d < 1", c.TurboIterations)
	case c.CodeRate != 0 && !(0 < c.CodeRate && c.CodeRate < 1): // also rejects NaN
		return fmt.Errorf("uplink: code rate %g outside (0, 1)", c.CodeRate)
	case c.Combiner < CombinerMMSE || c.Combiner > CombinerIRC:
		return fmt.Errorf("uplink: unknown combiner %d", int(c.Combiner))
	case c.ChanEst < ChanEstWindowed || c.ChanEst > ChanEstLS:
		return fmt.Errorf("uplink: unknown channel estimator %d", int(c.ChanEst))
	case c.Precision < PrecisionFloat64 || c.Precision > PrecisionFloat32:
		return fmt.Errorf("uplink: unknown precision %d", int(c.Precision))
	case c.InterleaverColumns < 1:
		return fmt.Errorf("uplink: interleaver columns %d < 1", c.InterleaverColumns)
	}
	return nil
}
