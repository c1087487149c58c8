package uplink

import "ltephy/internal/phy/linalg"

// Interference rejection combining: instead of assuming white noise, the
// receiver estimates the spatial covariance of whatever the channel
// estimate cannot explain — thermal noise plus neighbouring cells'
// uplink traffic — from the reference-symbol residuals, and whitens it
// into the combiner. Classic eNodeB practice; an extension over the
// paper's pipeline (DESIGN.md §5).

// estimateCovariance computes the band-averaged A x A residual covariance
//
//	R = mean_k e(k) e(k)^H,  e(k) = y_ref(k) - H_est(k) r(k)
//
// over both slots into the split planes rRe/rIm (ant x ant row-major),
// diagonally loaded with the working noise variance so R stays positive
// definite even in interference-free conditions. The planes must arrive
// zeroed.
func (j *UserJob) estimateCovariance(rRe, rIm []float64) {
	ant := j.Cfg.Antennas
	var e [linalg.MaxDim]complex128
	count := 0
	for slot := 0; slot < SlotsPerSubframe; slot++ {
		hs := j.hest[slot]
		for k := 0; k < j.n; k++ {
			for a := 0; a < ant; a++ {
				expected := complex(0, 0)
				for l := 0; l < j.layers; l++ {
					expected += hs[(a*j.layers+l)*j.n+k] * j.layerRef[l][k]
				}
				e[a] = j.U.RefRx[slot][a][k] - expected
			}
			for a := 0; a < ant; a++ {
				for b := 0; b < ant; b++ {
					v := e[a] * cmplxConj(e[b])
					rRe[a*ant+b] += real(v)
					rIm[a*ant+b] += imag(v)
				}
			}
			count++
		}
	}
	scale := 1 / float64(count)
	for i := range rRe {
		rRe[i] *= scale
		rIm[i] *= scale
	}
	// Diagonal loading: never trust the residual completely.
	for a := 0; a < ant; a++ {
		rRe[a*ant+a] += j.nv*0.1 + 1e-9
	}
}

// computeIRCWeights fills the weight buffers with the whitened MMSE
// solution W = (H^H R^{-1} H + I)^{-1} H^H R^{-1} — linalg.IRCSolve per
// subcarrier at float64, all scratch on the stack.
func (j *UserJob) computeIRCWeights() {
	if j.fp32 {
		j.computeIRCWeightsF32()
		return
	}
	n, ant, layers := j.n, j.Cfg.Antennas, j.layers
	al := ant * layers
	var rR, rI [linalg.MaxDim * linalg.MaxDim]float64
	j.estimateCovariance(rR[:ant*ant], rI[:ant*ant])
	var hR, hI, wR, wI [linalg.MaxDim * linalg.MaxDim]float64
	for slot := 0; slot < SlotsPerSubframe; slot++ {
		hs := j.hest[slot]
		out := j.weights[slot]
		for k := 0; k < n; k++ {
			for i := 0; i < al; i++ {
				v := hs[i*n+k]
				hR[i], hI[i] = real(v), imag(v)
			}
			if !linalg.IRCSolve(wR[:al], wI[:al], rR[:ant*ant], rI[:ant*ant], hR[:al], hI[:al], ant, layers) {
				clear(wR[:al])
				clear(wI[:al])
			}
			for i := range al {
				out[k*al+i] = complex(wR[i], wI[i])
			}
		}
	}
}
