// Split-plane weight solves: the per-subcarrier MMSE and IRC combining
// solutions over row-major re/im planes (the internal/phy/lane layout),
// generic over the element width. Both receivers run this code — the
// float32 lane path directly, the complex128 path at float64 — so the
// float64 instantiation is the float32 path's oracle. The solves exploit
// the structure the receiver guarantees: the regularised Gram and the
// diagonally loaded covariance are Hermitian positive definite, so only
// the lower triangle is built and lane.HermSolve factors it by Cholesky
// (closed forms for one and two layers) and substitutes on H^H — no
// pivot search, no explicit inverse.
//
// Shapes are tiny (at most 8 antennas x 4 layers), so scratch lives in
// fixed stack arrays and every solve is allocation-free — these functions
// run once per subcarrier on the hot path.
package linalg

import (
	"fmt"

	"ltephy/internal/phy/lane"
)

// MaxDim and MaxLayers bound the solvers' matrix dimensions — up to 8
// receive antennas and LTE's 4 spatial layers — and so the stack scratch
// every solve clears.
const (
	MaxDim    = 8
	MaxLayers = 4
)

func checkShape(ant, layers int) {
	if ant < 1 || ant > MaxDim || layers < 1 || layers > MaxLayers || layers > ant {
		panic(fmt.Sprintf("linalg: invalid solve shape ant=%d layers=%d", ant, layers))
	}
}

// gramLower fills the lower triangle (j <= i, all HermSolve reads) of the
// layers x layers matrix g = a^H b + load*I, for ant x layers a and b.
func gramLower[T float32 | float64](gRe, gIm, aRe, aIm, bRe, bIm []T, ant, layers int, load T) {
	for i := 0; i < layers; i++ {
		for j := 0; j <= i; j++ {
			var sr, si T
			for k := 0; k < ant; k++ {
				ar, ai := aRe[k*layers+i], aIm[k*layers+i]
				br, bi := bRe[k*layers+j], bIm[k*layers+j]
				sr += ar*br + ai*bi
				si += ar*bi - ai*br
			}
			gRe[i*layers+j], gIm[i*layers+j] = sr, si
		}
		gRe[i*layers+i] += load
	}
}

// conjTranspose writes the layers x ant matrix a^H for ant x layers a.
func conjTranspose[T float32 | float64](dRe, dIm, aRe, aIm []T, ant, layers int) {
	for l := 0; l < layers; l++ {
		for k := 0; k < ant; k++ {
			dRe[l*ant+k] = aRe[k*layers+l]
			dIm[l*ant+k] = -aIm[k*layers+l]
		}
	}
}

// MMSESolve computes the MMSE combining matrix
//
//	W = (H^H H + nv I)^{-1} H^H
//
// into dst (layers x ant row-major planes), where h is the ant x layers
// channel matrix (row-major planes) and nv the diagonal loading (noise
// variance). It returns false — leaving dst unspecified — when the
// regularised Gram matrix is not numerically positive definite (a NaN
// channel, or a singular one with nv <= 0); the caller zeroes its weights.
func MMSESolve[T float32 | float64](dstRe, dstIm, hRe, hIm []T, ant, layers int, nv T) bool {
	checkShape(ant, layers)
	var gRe, gIm [MaxLayers * MaxLayers]T // layers x layers Gram
	gramLower(gRe[:], gIm[:], hRe, hIm, hRe, hIm, ant, layers, nv)
	// The right-hand side H^H goes straight into dst and is solved in place.
	conjTranspose(dstRe, dstIm, hRe, hIm, ant, layers)
	lm := layers * ant
	return lane.HermSolve(layers, ant, gRe[:], gIm[:],
		dstRe[:lm], dstIm[:lm], dstRe[:lm], dstIm[:lm])
}

// IRCSolve computes the interference-rejection combining matrix
//
//	W = (H^H R^{-1} H + I)^{-1} H^H R^{-1}
//
// into dst (layers x ant row-major planes), where r is the ant x ant
// Hermitian noise-plus-interference covariance (diagonally loaded by the
// caller, hence positive definite) and h the ant x layers channel. A
// covariance that fails the Cholesky factorisation (degenerate all-zero
// input) falls back to identity whitening — plain MMSE behaviour with
// unit loading. It returns false when the whitened Gram solve itself
// fails; the caller zeroes its weights.
//
// r is preserved; the two inner solves work on stack copies.
func IRCSolve[T float32 | float64](dstRe, dstIm, rRe, rIm, hRe, hIm []T, ant, layers int) bool {
	checkShape(ant, layers)
	al := ant * layers
	// B = R^{-1} H (ant x layers): solve R B = H. HermSolve leaves its A
	// argument untouched, so r passes through directly.
	var bRe, bIm [MaxDim * MaxLayers]T
	if !lane.HermSolve(ant, layers, rRe[:ant*ant], rIm[:ant*ant], hRe[:al], hIm[:al], bRe[:al], bIm[:al]) {
		copy(bRe[:al], hRe[:al])
		copy(bIm[:al], hIm[:al])
	}
	// G = H^H B + I (layers x layers): Hermitian since R is.
	var gRe, gIm [MaxLayers * MaxLayers]T
	gramLower(gRe[:], gIm[:], hRe, hIm, bRe[:], bIm[:], ant, layers, 1)
	// The right-hand side B^H = H^H R^{-1} (R is Hermitian) goes straight
	// into dst and is solved in place.
	conjTranspose(dstRe, dstIm, bRe[:], bIm[:], ant, layers)
	return lane.HermSolve(layers, ant, gRe[:], gIm[:],
		dstRe[:al], dstIm[:al], dstRe[:al], dstIm[:al])
}
