package uplink

import "ltephy/internal/phy/linalg"

// Interference rejection combining: instead of assuming white noise, the
// receiver estimates the spatial covariance of whatever the channel
// estimate cannot explain — thermal noise plus neighbouring cells'
// uplink traffic — from the reference-symbol residuals, and whitens it
// into the combiner. Classic eNodeB practice; an extension over the
// paper's pipeline (DESIGN.md §5).

// computeIRCWeights fills the weight planes with the whitened MMSE
// solution W = (H^H R^{-1} H + I)^{-1} H^H R^{-1} — linalg.IRCSolve per
// subcarrier, all scratch on the stack.
func (j *UserJob) computeIRCWeights() {
	if j.fp32 {
		j.f32.computeIRCWeights(j)
		return
	}
	j.f64.computeIRCWeights(j)
}

// estimateCovariance computes the band-averaged A x A residual covariance
//
//	R = mean_k e(k) e(k)^H,  e(k) = y_ref(k) - H_est(k) r(k)
//
// over both slots into the split planes rRe/rIm (ant x ant row-major),
// diagonally loaded with the working noise variance so R stays positive
// definite even in interference-free conditions. Residuals are computed
// at width F; the accumulation over 2n subcarriers runs in float64 stack
// accumulators so the band average keeps full precision.
func (p *planes[F]) estimateCovariance(j *UserJob, rRe, rIm []F) {
	n, ant, layers := j.n, j.Cfg.Antennas, j.layers
	al := ant * layers
	var accRe, accIm [linalg.MaxDim * linalg.MaxDim]float64
	var eR, eI [linalg.MaxDim]F
	count := 0
	for slot := 0; slot < SlotsPerSubframe; slot++ {
		hre, him := p.hest(slot, al, n)
		for k := 0; k < n; k++ {
			for a := 0; a < ant; a++ {
				var expR, expI F
				for l := 0; l < layers; l++ {
					hr, hi := hre[(a*layers+l)*n+k], him[(a*layers+l)*n+k]
					rr, ri := p.layerRef[l].Re[k], p.layerRef[l].Im[k]
					expR += hr*rr - hi*ri
					expI += hr*ri + hi*rr
				}
				rxRe, rxIm := p.ref(slot, a, ant, n)
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
	// Diagonal loading: never trust the residual completely.
	load := j.nv*0.1 + 1e-9
	for a := 0; a < ant; a++ {
		for b := 0; b < ant; b++ {
			re := accRe[a*ant+b] * scale
			if a == b {
				re += load
			}
			rRe[a*ant+b] = F(re)
			rIm[a*ant+b] = F(accIm[a*ant+b] * scale)
		}
	}
}

func (p *planes[F]) computeIRCWeights(j *UserJob) {
	n, ant, layers := j.n, j.Cfg.Antennas, j.layers
	al := ant * layers
	var rR, rI [linalg.MaxDim * linalg.MaxDim]F
	p.estimateCovariance(j, rR[:ant*ant], rI[:ant*ant])
	var hR, hI, wR, wI [linalg.MaxDim * linalg.MaxDim]F
	for slot := 0; slot < SlotsPerSubframe; slot++ {
		hre, him := p.hest(slot, al, n)
		outRe, outIm := p.wRe[slot], p.wIm[slot]
		for k := 0; k < n; k++ {
			for i := 0; i < al; i++ {
				hR[i], hI[i] = hre[i*n+k], him[i*n+k]
			}
			if !linalg.IRCSolve(wR[:al], wI[:al], rR[:ant*ant], rI[:ant*ant], hR[:al], hI[:al], ant, layers) {
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
