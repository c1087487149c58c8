package uplink

import (
	"fmt"
	"sync"

	"ltephy/internal/phy/crc"
	"ltephy/internal/phy/modulation"
	"ltephy/internal/phy/turbo"
	"ltephy/internal/phy/workspace"
)

// TransportFormat describes how a user's payload maps onto its physical
// allocation for one subframe. The transmitter and receiver derive it
// identically from (UserParams, TurboMode), so no control channel is
// modelled — the base station knows the grant it issued (paper Section VI:
// "the input parameters of a subframe are known before the subframe is
// received").
type TransportFormat struct {
	// Symbols is the number of constellation symbols the allocation
	// carries: dataSymbols * layers * subcarriers.
	Symbols int
	// TotalBits = Symbols * bitsPerSymbol.
	TotalBits int
	// PayloadBits is the transport-block payload size (before CRC24A).
	PayloadBits int
	// CodedBits is the number of bits actually occupied after CRC attach
	// (and turbo encoding in TurboFull mode); TotalBits - CodedBits
	// trailing bits are zero padding. With rate matching (Rate > 0) the
	// allocation is filled exactly and CodedBits == TotalBits.
	CodedBits int
	// Seg is the code-block segmentation plan (TurboFull only).
	Seg *turbo.Segmentation
	// Rate, when nonzero, selects the rate-matched TurboFull path: the
	// payload is sized to Rate*TotalBits and the codeword is punctured or
	// repeated to fill the allocation exactly (TS 36.212 §5.1.4.1).
	Rate float64
}

// tbCRC is the transport-block checksum (TS 36.212 §5.1.1: CRC24A).
const tbCRC = crc.CRC24A

// formatKey identifies a transport format up to everything it depends on —
// the user ID does not affect the format, so users with equal allocations
// share one entry.
type formatKey struct {
	prb, layers int
	mod         modulation.Scheme
	mode        TurboMode
	rate        float64
}

// formatCache memoises transport formats: the TurboFull constructor runs a
// binary search over segmentation plans, far too heavy to repeat per user
// per subframe. TransportFormat is immutable (its Segmentation and Codec
// are), so entries are shared freely across jobs. RWMutex-guarded so the
// per-job lookup doesn't box the key (a sync.Map hit would allocate).
var (
	formatMu    sync.RWMutex
	formatCache = map[formatKey]TransportFormat{}
)

// cachedTransportFormat is a double-checked RWMutex cache: steady state
// is one uncontended RLock over a map read; the write lock is
// first-sight-only.
//
//ltephy:blocking-ok
func cachedTransportFormat(p UserParams, mode TurboMode, rate float64) (TransportFormat, error) {
	key := formatKey{prb: p.PRB, layers: p.Layers, mod: p.Mod, mode: mode, rate: rate}
	formatMu.RLock()
	f, ok := formatCache[key]
	formatMu.RUnlock()
	if ok {
		return f, nil
	}
	f, err := NewTransportFormatRate(p, mode, rate)
	if err != nil {
		return TransportFormat{}, err
	}
	formatMu.Lock()
	if cached, ok := formatCache[key]; ok {
		f = cached
	} else {
		formatCache[key] = f
	}
	formatMu.Unlock()
	return f, nil
}

// NewTransportFormatRate computes a rate-matched TurboFull format: the
// payload is rate*TotalBits (minus CRC), turbo-encoded and rate-matched to
// occupy the allocation exactly. rate 0 falls back to NewTransportFormat's
// behaviour (mother-rate codeword plus zero padding).
func NewTransportFormatRate(p UserParams, mode TurboMode, rate float64) (TransportFormat, error) {
	if rate == 0 || mode != TurboFull {
		return NewTransportFormat(p, mode)
	}
	if !(turbo.MinRate <= rate && rate <= turbo.MaxRate) { // also rejects NaN
		return TransportFormat{}, fmt.Errorf("uplink: code rate %g outside [%g, %g]",
			rate, turbo.MinRate, turbo.MaxRate)
	}
	if err := p.Validate(); err != nil {
		return TransportFormat{}, err
	}
	n := p.Subcarriers()
	f := TransportFormat{Symbols: DataSymbolsPerSubframe * p.Layers * n, Rate: rate}
	f.TotalBits = f.Symbols * p.Mod.Bits()
	f.PayloadBits = int(rate*float64(f.TotalBits)) - tbCRC.Bits()
	if f.PayloadBits < 1 {
		return TransportFormat{}, fmt.Errorf("uplink: allocation of %d bits too small for rate %g",
			f.TotalBits, rate)
	}
	seg, err := turbo.NewSegmentation(f.PayloadBits + tbCRC.Bits())
	if err != nil {
		return TransportFormat{}, err
	}
	f.Seg = seg
	f.CodedBits = f.TotalBits
	return f, nil
}

// NewTransportFormat computes the format for the given user parameters.
func NewTransportFormat(p UserParams, mode TurboMode) (TransportFormat, error) {
	if err := p.Validate(); err != nil {
		return TransportFormat{}, err
	}
	n := p.Subcarriers()
	f := TransportFormat{Symbols: DataSymbolsPerSubframe * p.Layers * n}
	f.TotalBits = f.Symbols * p.Mod.Bits()
	if mode == TurboPassthrough {
		f.PayloadBits = f.TotalBits - tbCRC.Bits()
		f.CodedBits = f.TotalBits
		return f, nil
	}
	// TurboFull: the largest payload whose rate-1/3 encoding (plus
	// per-block CRCs, filler and termination) fits the allocation.
	// Segmentation coded length is nondecreasing in the block size, so
	// binary search applies.
	lo, hi := 1, f.TotalBits // payload bounds (hi is safely infeasible)
	fits := func(p int) (*turbo.Segmentation, bool) {
		s, err := turbo.NewSegmentation(p + tbCRC.Bits())
		if err != nil {
			return nil, false
		}
		return s, s.CodedLen() <= f.TotalBits
	}
	if _, ok := fits(lo); !ok {
		return TransportFormat{}, fmt.Errorf("uplink: allocation of %d bits cannot fit any turbo codeword", f.TotalBits)
	}
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if _, ok := fits(mid); ok {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	seg, _ := fits(lo)
	f.PayloadBits = lo
	f.Seg = seg
	f.CodedBits = seg.CodedLen()
	return f, nil
}

// EncodeTransportBlock produces the bit stream occupying the allocation:
// payload + CRC24A (+ turbo encoding) + zero padding to TotalBits. Initial
// transmissions use redundancy version 0.
func (f TransportFormat) EncodeTransportBlock(payload []uint8) []uint8 {
	return f.EncodeTransportBlockRV(payload, 0)
}

// EncodeTransportBlockRV encodes with an explicit redundancy version —
// HARQ retransmissions send rv 2 (then 1, 3). Only the rate-matched
// TurboFull path distinguishes versions; rv must be 0 otherwise.
func (f TransportFormat) EncodeTransportBlockRV(payload []uint8, rv int) []uint8 {
	if len(payload) != f.PayloadBits {
		panic(fmt.Sprintf("uplink: payload %d bits, format expects %d", len(payload), f.PayloadBits))
	}
	if rv != 0 && f.Rate == 0 {
		panic(fmt.Sprintf("uplink: redundancy version %d requires the rate-matched format", rv))
	}
	tb := tbCRC.AppendBits(payload)
	var coded []uint8
	switch {
	case f.Rate > 0:
		var err error
		coded, err = f.Seg.EncodeRM(tb, f.TotalBits, rv)
		if err != nil {
			// The format constructor guarantees e >= C; reaching here is a
			// construction bug, not an input error.
			panic(fmt.Sprintf("uplink: rate matching failed: %v", err))
		}
	case f.Seg != nil:
		coded = f.Seg.Encode(tb)
	default:
		coded = tb
	}
	out := make([]uint8, f.TotalBits)
	copy(out, coded)
	return out
}

// DecodeParams bundles the decode-path knobs a caller threads from
// ReceiverConfig down to the turbo decoder.
type DecodeParams struct {
	// Iterations caps full turbo iterations per code block.
	Iterations int
	// RV is the redundancy version of the transmission being decoded
	// (rate-matched formats only).
	RV int
	// Par, when non-nil, fans one code block's trellis windows out
	// across scheduler workers.
	Par turbo.Parallel
}

// DecodeParams derives the decode configuration a receiver with this
// config applies — the single place bench/enb/sim-facing code maps
// ReceiverConfig onto the decoder.
func (c ReceiverConfig) DecodeParams() DecodeParams {
	return DecodeParams{Iterations: c.TurboIterations}
}

// tbCRCCheck is the transport-block CRC gate as a package-level func, so
// CRC-gated early termination doesn't materialise a closure per decode.
var tbCRCCheck = func(bits []uint8) bool { return tbCRC.CheckBits(bits) }

// DecodeTransportBlockParams inverts EncodeTransportBlock from soft bits:
// it consumes exactly TotalBits LLRs, decodes with the given redundancy
// version, CRC-gated early termination (the transport-block CRC24A gates
// single-block segments per half-iteration) and optional window fan-out,
// and verifies CRC24A. Decoder scratch is drawn from ws and the decoded
// bits are appended to dst (both may be nil; reusing dst across calls
// keeps the hot path allocation-free); the payload is dst-backed, never
// arena scratch. It additionally returns the realized half-iteration
// count, which feeds the iteration-aware decode cost model.
func (f TransportFormat) DecodeTransportBlockParams(dst []uint8, ws *workspace.Arena, llr []float64, p DecodeParams) (payload []uint8, crcOK bool, halfIters int) {
	if len(llr) != f.TotalBits {
		panic(fmt.Sprintf("uplink: got %d LLRs, format expects %d", len(llr), f.TotalBits))
	}
	opts := turbo.SegDecodeOpts{
		Iterations: p.Iterations,
		Par:        p.Par,
		TBCheck:    tbCRCCheck,
	}
	var tb []uint8
	if f.Rate > 0 {
		var err error
		tb, _, halfIters, err = f.Seg.DecodeRMOptsInto(dst[:0], ws, llr, p.RV, opts)
		if err != nil {
			panic(fmt.Sprintf("uplink: de-rate-matching failed: %v", err))
		}
	} else if f.Seg != nil {
		tb, _, halfIters = f.Seg.DecodeOptsInto(dst[:0], ws, llr[:f.CodedBits], opts)
	} else {
		// Pass-through: hard decision, exactly like the paper's stub that
		// forwards data unchanged.
		if cap(dst) >= f.CodedBits {
			tb = dst[:f.CodedBits]
		} else {
			tb = make([]uint8, f.CodedBits) //ltephy:alloc-ok — payload outlives the arena by design; hot callers pass a preallocated dst
		}
		// The bits are random, so a branch on the sign mispredicts every
		// other bit: b is a flag materialisation, not a jump.
		for i, l := range llr[:len(tb)] {
			var b uint8
			if l < 0 {
				b = 1
			}
			tb[i] = b
		}
	}
	crcOK = tbCRC.CheckBits(tb)
	return tb[:len(tb)-tbCRC.Bits()], crcOK, halfIters
}
