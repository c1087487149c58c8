package modulation

import (
	"fmt"
	"slices"
)

// Float32 split-plane demapper path: the receiver's float32 lane layout
// (internal/phy/lane) carries equalised symbols as separate re/im
// float32 planes, and the turbo decoder's input conversion happens once
// per allocation at the job boundary, so the axis kernel runs here at its
// float32 instantiation — the same code as the float64 demapper, with the
// unit level narrowed once.

// DemapEVMF32 is DemapEVM over split-plane float32 symbols, producing
// float32 LLRs with the same convention (positive means bit 0 is more
// likely). symRe and symIm must have equal length; LLRs are appended to
// dst in transmitted bit order. noiseVar must be > 0. The per-symbol
// nearest-point distances are computed in float32 and accumulated in
// float64, so the EVM's reduction over a whole allocation does not lose
// precision.
func (s Scheme) DemapEVMF32(dst []float32, symRe, symIm []float32, noiseVar float32) (llr []float32, evm float64) {
	if !(noiseVar > 0) {
		panic(fmt.Sprintf("modulation: non-positive noise variance %g", noiseVar))
	}
	if len(symRe) != len(symIm) {
		panic(fmt.Sprintf("modulation: plane lengths %d/%d differ", len(symRe), len(symIm)))
	}
	n, bits := len(dst), s.Bits()*len(symRe)
	dst = slices.Grow(dst, bits)[:n+bits]
	return dst, rms(s.demapEVMF32(dst[n:], symRe, symIm, noiseVar), len(symRe))
}

// demapEVMF32 is demapEVM over equal-length split planes.
func (s Scheme) demapEVMF32(out, symRe, symIm []float32, noiseVar float32) (errPow float64) {
	a := float32(unit[s])
	k := 4 * a / noiseVar
	symIm = symIm[:len(symRe)]
	switch s {
	case QPSK:
		for i, yI := range symRe {
			o := out[2*i : 2*i+2]
			errPow += float64(axis2(o, yI, a, k)) + float64(axis2(o[1:], symIm[i], a, k))
		}
	case QAM16:
		for i, yI := range symRe {
			o := out[4*i : 4*i+4]
			errPow += float64(axis4(o, yI, a, k)) + float64(axis4(o[1:], symIm[i], a, k))
		}
	case QAM64:
		for i, yI := range symRe {
			o := out[6*i : 6*i+6]
			errPow += float64(axis6(o, yI, a, k)) + float64(axis6(o[1:], symIm[i], a, k))
		}
	}
	return errPow
}

// DemapF32 is DemapEVMF32 without the EVM.
func (s Scheme) DemapF32(dst []float32, symRe, symIm []float32, noiseVar float32) []float32 {
	dst, _ = s.DemapEVMF32(dst, symRe, symIm, noiseVar)
	return dst
}

// EVMF32 is DemapEVMF32 without the LLRs; see EVM.
func (s Scheme) EVMF32(symRe, symIm []float32) float64 {
	var llr [6 * evmChunk]float32
	var errPow float64
	for i := 0; i < len(symRe); i += evmChunk {
		j := min(i+evmChunk, len(symRe))
		errPow += s.demapEVMF32(llr[:s.Bits()*(j-i)], symRe[i:j], symIm[i:j], 1)
	}
	return rms(errPow, len(symRe))
}

// HardDecideF32 converts float32 LLRs to bits with the same
// positive-means-zero convention as HardDecide, appending to dst.
func HardDecideF32(dst []uint8, llr []float32) []uint8 {
	for _, l := range llr {
		if l >= 0 {
			dst = append(dst, 0)
		} else {
			dst = append(dst, 1)
		}
	}
	return dst
}
