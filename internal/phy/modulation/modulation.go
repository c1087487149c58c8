// Package modulation implements the LTE uplink constellations (TS 36.211
// §7.1): Gray-mapped QPSK, 16-QAM and 64-QAM, plus an exact max-log-MAP
// soft demapper producing per-bit log-likelihood ratios and, in the same
// pass, the EVM.
//
// The demapper is the paper's "soft symbol demapping" kernel (Fig. 3). It
// is closed-form. The 36.211 tables (7.1.2-1, 7.1.3-1, 7.1.4-1) are square:
// even-position bits pick the I level and odd-position bits the Q level
// from the same per-axis table, whose levels are the odd multiples of a unit
// a — ±a; ±a, ±3a; ±3a, ±a, ±5a, ±7a — with the first axis bit the sign and
// the rest Gray-coded so each folds the axis about a boundary at an even
// multiple of a. The squared distance to a point is then a sum of two
// per-axis terms of which a bit constrains one, so
//
//	LLR(b) = (min_{s: b=1} |y-s|^2 - min_{s: b=0} |y-s|^2) / noiseVar
//
// is a difference of squared distances from one coordinate to two levels:
// piecewise linear in that coordinate, the pieces meeting where the nearest
// level of a hypothesis changes. kernel.go evaluates the pieces with an
// abs, a subtract and a multiply per axis bit, and the distance to the
// nearest level — what the EVM sums — is the end of the same chain. The
// cost per symbol is linear in Q (bits), not in 2^Q (points), so in Fig. 11
// higher-order modulation raises the demapper's workload only through the
// bit count. TestDemapMatchesExhaustive holds the closed form to the
// definition, a scan of all 2^Q points of Constellation.
package modulation

import (
	"fmt"
	"math"
	"slices"
)

// Scheme identifies a modulation scheme. The zero value is QPSK.
type Scheme int

// The three uplink modulation schemes the paper's parameter model selects
// between (Fig. 10).
const (
	QPSK Scheme = iota
	QAM16
	QAM64
)

// nSchemes is the number of supported schemes; used for table sizing.
const nSchemes = 3

// String returns the conventional name of the scheme.
func (s Scheme) String() string {
	switch s {
	case QPSK:
		return "QPSK"
	case QAM16:
		return "16QAM"
	case QAM64:
		return "64QAM"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// Bits returns the number of bits carried per modulated symbol.
func (s Scheme) Bits() int {
	switch s {
	case QPSK:
		return 2
	case QAM16:
		return 4
	case QAM64:
		return 6
	default:
		panic(fmt.Sprintf("modulation: unknown scheme %d", int(s)))
	}
}

// Points returns the constellation size 2^Bits.
func (s Scheme) Points() int { return 1 << uint(s.Bits()) }

// pamLevel maps the per-axis bit group to its amplitude level following the
// 36.211 tables. For QPSK the single bit selects ±1/√2; for 16-QAM the two
// bits select ±1,±3 scaled by 1/√10; for 64-QAM the three bits select
// ±1..±7 scaled by 1/√42. The Gray code used is the standard's:
// 16-QAM per-axis levels for bits (b0,b2): 0→1, 1→3 (b0 gives sign).
func pamLevel(bits []uint8, scale float64) float64 {
	var mag float64
	switch len(bits) {
	case 1:
		mag = 1
	case 2:
		// 36.211 Table 7.1.3-1: second bit 0 → 1, 1 → 3.
		if bits[1] == 0 {
			mag = 1
		} else {
			mag = 3
		}
	case 3:
		// 36.211 Table 7.1.4-1 per-axis levels for (b2,b4) given sign b0:
		// 00→3, 01→1, 10→5, 11→7.
		switch bits[1]<<1 | bits[2] {
		case 0b00:
			mag = 3
		case 0b01:
			mag = 1
		case 0b10:
			mag = 5
		default:
			mag = 7
		}
	}
	v := mag * scale
	if bits[0] == 1 {
		v = -v
	}
	return v
}

// unit[s] is the scheme's unit amplitude a: the per-axis levels are the odd
// multiples ±a, ±3a, ... and unit average energy fixes a.
var unit = [nSchemes]float64{QPSK: 1 / math.Sqrt2, QAM16: 1 / math.Sqrt(10), QAM64: 1 / math.Sqrt(42)}

// constellations[s][idx] is the symbol whose bits, MSB first, equal idx.
var constellations = func() [nSchemes][]complex128 {
	var tabs [nSchemes][]complex128
	for _, s := range []Scheme{QPSK, QAM16, QAM64} {
		q := s.Bits()
		scale := unit[s]
		tab := make([]complex128, 1<<uint(q))
		for idx := range tab {
			bits := make([]uint8, q)
			for i := 0; i < q; i++ {
				bits[i] = uint8(idx>>uint(q-1-i)) & 1
			}
			// Per 36.211: even-position bits (b0, b2, b4) drive I,
			// odd-position bits (b1, b3, b5) drive Q.
			var ib, qb []uint8
			for i := 0; i < q; i += 2 {
				ib = append(ib, bits[i])
			}
			for i := 1; i < q; i += 2 {
				qb = append(qb, bits[i])
			}
			tab[idx] = complex(pamLevel(ib, scale), pamLevel(qb, scale))
		}
		tabs[s] = tab
	}
	return tabs
}()

// Constellation returns the scheme's symbol table indexed by the bit
// pattern (MSB first). The returned slice is shared; callers must not
// modify it.
func (s Scheme) Constellation() []complex128 { return constellations[s] }

// Map modulates bits (values 0/1, length a multiple of Bits()) into
// symbols appended to dst, returning the extended slice.
func (s Scheme) Map(dst []complex128, bits []uint8) []complex128 {
	q := s.Bits()
	if len(bits)%q != 0 {
		panic(fmt.Sprintf("modulation: %d bits not a multiple of %d", len(bits), q))
	}
	tab := constellations[s]
	for i := 0; i < len(bits); i += q {
		idx := 0
		for j := 0; j < q; j++ {
			idx = idx<<1 | int(bits[i+j])
		}
		dst = append(dst, tab[idx])
	}
	return dst
}

// DemapEVM computes max-log LLRs for each bit of each received symbol,
// appended to dst, and the EVM of the same symbols in one pass. The LLR
// convention is
//
//	LLR(b) = (min_{s: b=1} |y-s|^2 - min_{s: b=0} |y-s|^2) / noiseVar
//
// so positive LLR means bit 0 is more likely — matching the turbo decoder's
// input convention. noiseVar must be > 0. The EVM is the root-mean-square
// distance of the symbols to their nearest constellation points, normalised
// to the unit average constellation energy — the standard link-quality
// metric (an EVM of 0.1 is -20 dB); it is 0 for no symbols.
func (s Scheme) DemapEVM(dst []float64, syms []complex128, noiseVar float64) (llr []float64, evm float64) {
	if !(noiseVar > 0) {
		panic(fmt.Sprintf("modulation: non-positive noise variance %g", noiseVar))
	}
	n, bits := len(dst), s.Bits()*len(syms)
	dst = slices.Grow(dst, bits)[:n+bits]
	return dst, rms(s.demapEVM(dst[n:], syms, noiseVar), len(syms))
}

// rms turns a summed squared error over n symbols into the EVM.
func rms(errPow float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return math.Sqrt(errPow / float64(n))
}

// demapEVM runs the axis kernel over syms: it fills out with Bits() LLRs
// per symbol in transmitted bit order (even positions are I bits, odd are
// Q bits) and returns the summed squared distance to the nearest points.
func (s Scheme) demapEVM(out []float64, syms []complex128, noiseVar float64) (errPow float64) {
	a := unit[s]
	k := 4 * a / noiseVar
	switch s {
	case QPSK:
		for i, y := range syms {
			o := out[2*i : 2*i+2]
			errPow += axis2(o, real(y), a, k) + axis2(o[1:], imag(y), a, k)
		}
	case QAM16:
		for i, y := range syms {
			o := out[4*i : 4*i+4]
			errPow += axis4(o, real(y), a, k) + axis4(o[1:], imag(y), a, k)
		}
	case QAM64:
		for i, y := range syms {
			o := out[6*i : 6*i+6]
			errPow += axis6(o, real(y), a, k) + axis6(o[1:], imag(y), a, k)
		}
	}
	return errPow
}

// evmChunk is how many symbols EVM and EVMF32 hand the kernel at a time.
const evmChunk = 64

// Demap is DemapEVM without the EVM.
func (s Scheme) Demap(dst []float64, syms []complex128, noiseVar float64) []float64 {
	dst, _ = s.DemapEVM(dst, syms, noiseVar)
	return dst
}

// EVM is DemapEVM without the LLRs, which land in a stack buffer a chunk of
// symbols at a time.
func (s Scheme) EVM(syms []complex128) float64 {
	var llr [6 * evmChunk]float64
	var errPow float64
	for i := 0; i < len(syms); i += evmChunk {
		j := min(i+evmChunk, len(syms))
		errPow += s.demapEVM(llr[:s.Bits()*(j-i)], syms[i:j], 1)
	}
	return rms(errPow, len(syms))
}

// HardDecide converts LLRs to bits using the positive-means-zero
// convention, appending to dst.
func HardDecide(dst []uint8, llr []float64) []uint8 {
	for _, l := range llr {
		if l >= 0 {
			dst = append(dst, 0)
		} else {
			dst = append(dst, 1)
		}
	}
	return dst
}
