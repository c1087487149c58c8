// Package lane implements the split-plane float32 data layout the
// receiver hot path runs on: a complex vector stored as two separate
// contiguous []float32 slices (the re plane and the im plane) instead of
// an array-of-structs []complex128.
//
// The layout is the one a base station's vector units (and the GPU
// channel-estimation formulations in the literature) consume: every
// kernel below is a stride-1 loop over the planes with the slice lengths
// hoisted so the Go compiler eliminates bounds checks and can keep the
// whole loop in registers. Against the complex128 AoS path this halves
// memory traffic per element and removes the real/imag shuffle from every
// load — the two effects that dominate ns/op in the transform-shaped
// stages (chanest, combine/despread) once allocation is off the hot path.
//
// Precision contract: float32 arithmetic carries ~7 decimal digits. The
// complex128 pipeline remains the accuracy oracle; the receiver's
// float32 path is validated against it across the full nPRB 2..200 sweep
// with pinned EVM-delta and LLR-divergence bounds (see
// internal/uplink's f32 accuracy tests and DESIGN.md §10 for the
// measured budget). Kernels that reduce over a whole vector (conjugate
// dot, power sums) accumulate in float64 so the reduction error does not
// grow with vector length.
//
// Memory comes from the caller: planes are ordinary slices, typically
// carved from a per-worker workspace.Arena via NewVecIn. All kernels are
// allocation-free and safe for concurrent use on disjoint planes.
//
// One kernel is generic over the element width: HermSolve, the Hermitian
// positive-definite solve behind every combiner, also runs at float64 —
// as the complex128 receiver's weight solver and as this path's oracle.
package lane

import (
	"math"

	"ltephy/internal/phy/workspace"
)

// Vec is a split-plane complex vector: element k is
// complex(Re[k], Im[k]). Both planes always have equal length.
type Vec struct {
	Re, Im []float32
}

// NewVecIn carves a zeroed n-element vector from ws (heap when nil).
//
// vector's lifetime with its own Mark/Release.
//
//ltephy:owns-scratch — carve constructor: the caller brackets the
func NewVecIn(ws *workspace.Arena, n int) Vec {
	return Vec{Re: ws.Float32(n), Im: ws.Float32(n)}
}

// Len returns the vector length.
func (v Vec) Len() int { return len(v.Re) }

// Slice returns the sub-vector [lo, hi) sharing the same planes.
func (v Vec) Slice(lo, hi int) Vec {
	return Vec{Re: v.Re[lo:hi], Im: v.Im[lo:hi]}
}

// Pack converts an interleaved complex128 vector into split planes,
// rounding each component to float32. dre and dim must have the same
// length as src — this is the only conversion point between the
// complex128 world and the lane layout (the "job boundary" of the
// receiver's float32 path).
func Pack(dre, dim []float32, src []complex128) {
	n := len(src)
	dre = dre[:n]
	dim = dim[:n]
	for k := 0; k < n; k++ {
		v := src[k]
		dre[k] = float32(real(v))
		dim[k] = float32(imag(v))
	}
}

// Unpack converts split planes back to an interleaved complex128 vector.
// A Pack/Unpack round trip starting from float32-representable values is
// bit-exact: float32 -> float64 -> float32 is the identity conversion
// (FuzzLanePackUnpack pins this for all lengths including odd tails).
func Unpack(dst []complex128, sre, sim []float32) {
	n := len(dst)
	sre = sre[:n]
	sim = sim[:n]
	for k := 0; k < n; k++ {
		dst[k] = complex(float64(sre[k]), float64(sim[k]))
	}
}

// PackVec is Pack onto a Vec.
func PackVec(dst Vec, src []complex128) { Pack(dst.Re, dst.Im, src) }

// UnpackVec is Unpack from a Vec.
func UnpackVec(dst []complex128, src Vec) { Unpack(dst, src.Re, src.Im) }

// Mul computes d = a * b elementwise (complex multiply on planes).
func Mul(dre, dim, are, aim, bre, bim []float32) {
	n := len(dre)
	dim = dim[:n]
	are, aim = are[:n], aim[:n]
	bre, bim = bre[:n], bim[:n]
	for k := 0; k < n; k++ {
		ar, ai := are[k], aim[k]
		br, bi := bre[k], bim[k]
		dre[k] = ar*br - ai*bi
		dim[k] = ar*bi + ai*br
	}
}

// MulConj computes d = a * conj(b) elementwise — the matched-filter
// kernel (unit-modulus reference, so conjugate multiply inverts the
// known sequence).
func MulConj(dre, dim, are, aim, bre, bim []float32) {
	n := len(dre)
	dim = dim[:n]
	are, aim = are[:n], aim[:n]
	bre, bim = bre[:n], bim[:n]
	for k := 0; k < n; k++ {
		ar, ai := are[k], aim[k]
		br, bi := bre[k], bim[k]
		dre[k] = ar*br + ai*bi
		dim[k] = ai*br - ar*bi
	}
}

// MulAcc computes d += a * b elementwise — the antenna-combining
// multiply-accumulate: the combiner output accumulates one antenna's
// weighted contribution per call, stride-1 over subcarriers.
func MulAcc(dre, dim, are, aim, bre, bim []float32) {
	n := len(dre)
	dim = dim[:n]
	are, aim = are[:n], aim[:n]
	bre, bim = bre[:n], bim[:n]
	for k := 0; k < n; k++ {
		ar, ai := are[k], aim[k]
		br, bi := bre[k], bim[k]
		dre[k] += ar*br - ai*bi
		dim[k] += ar*bi + ai*br
	}
}

// MulConjAcc computes d += a * conj(b) elementwise.
func MulConjAcc(dre, dim, are, aim, bre, bim []float32) {
	n := len(dre)
	dim = dim[:n]
	are, aim = are[:n], aim[:n]
	bre, bim = bre[:n], bim[:n]
	for k := 0; k < n; k++ {
		ar, ai := are[k], aim[k]
		br, bi := bre[k], bim[k]
		dre[k] += ar*br + ai*bi
		dim[k] += ai*br - ar*bi
	}
}

// Axpy computes y += (ar + i*ai) * x: scaled vector accumulate with a
// scalar complex coefficient.
func Axpy(ar, ai float32, xre, xim, yre, yim []float32) {
	n := len(yre)
	yim = yim[:n]
	xre, xim = xre[:n], xim[:n]
	for k := 0; k < n; k++ {
		xr, xi := xre[k], xim[k]
		yre[k] += ar*xr - ai*xi
		yim[k] += ar*xi + ai*xr
	}
}

// Scale multiplies both planes by the real scalar s in place (the
// despread 1/sqrt(N) undo, inverse-transform normalisation).
func Scale(s float32, re, im []float32) {
	n := len(re)
	im = im[:n]
	for k := 0; k < n; k++ {
		re[k] *= s
	}
	for k := 0; k < n; k++ {
		im[k] *= s
	}
}

// ScaleC multiplies the vector by the complex scalar (cr + i*ci) in
// place — the residual-CFO de-rotation by a unit phasor.
func ScaleC(cr, ci float32, re, im []float32) {
	n := len(re)
	im = im[:n]
	for k := 0; k < n; k++ {
		r, i := re[k], im[k]
		re[k] = r*cr - i*ci
		im[k] = r*ci + i*cr
	}
}

// Mag2 writes the squared magnitude of each element into dst.
func Mag2(dst, re, im []float32) {
	n := len(dst)
	re, im = re[:n], im[:n]
	for k := 0; k < n; k++ {
		r, i := re[k], im[k]
		dst[k] = r*r + i*i
	}
}

// SumMag2 returns the total power sum |v[k]|^2, accumulated in float64
// so the reduction does not lose precision with vector length.
func SumMag2(re, im []float32) float64 {
	n := len(re)
	im = im[:n]
	var sum float64
	for k := 0; k < n; k++ {
		r, i := float64(re[k]), float64(im[k])
		sum += r*r + i*i
	}
	return sum
}

// DotConj returns sum_k a[k] * conj(b[k]) with float64 accumulation —
// the correlation reduction behind the CFO estimate.
func DotConj(are, aim, bre, bim []float32) (re, im float64) {
	n := len(are)
	aim = aim[:n]
	bre, bim = bre[:n], bim[:n]
	for k := 0; k < n; k++ {
		ar, ai := float64(are[k]), float64(aim[k])
		br, bi := float64(bre[k]), float64(bim[k])
		re += ar*br + ai*bi
		im += ai*br - ar*bi
	}
	return re, im
}

// SumDiffMag2 returns sum_k |a[k] - b[k]|^2 with float64 accumulation —
// the slot-difference power behind the noise-variance estimate.
func SumDiffMag2(are, aim, bre, bim []float32) float64 {
	n := len(are)
	aim = aim[:n]
	bre, bim = bre[:n], bim[:n]
	var sum float64
	for k := 0; k < n; k++ {
		dr := float64(are[k]) - float64(bre[k])
		di := float64(aim[k]) - float64(bim[k])
		sum += dr*dr + di*di
	}
	return sum
}

// maxHermDim bounds the Hermitian solver's matrix order: up to 4 layers
// (the MMSE Gram) and up to 8 receive antennas (the IRC covariance).
const maxHermDim = 8

// HermSolve solves A*X = B for X, where A is an n x n Hermitian
// positive-definite matrix (row-major split planes aRe/aIm of n*n) and
// B, X are n x m (row-major split planes of n*m). X may alias B. Only
// A's lower triangle (including the diagonal) is read.
//
// This is the receiver's one per-subcarrier weight solver: A is the
// diagonally loaded Gram (or covariance) matrix, structurally Hermitian
// positive definite, so it is a Cholesky factorisation A = L L^H followed
// by forward and back substitution, unrolled to closed forms for orders 1
// and 2. The float32 instantiation is the lane hot path; the float64 one
// is the complex128 receiver's solver and the float32 path's oracle — the
// same code at the other width. It returns false when a pivot is not
// positive (a numerically singular or NaN channel) and the caller zeroes
// its output. n must be <= 8.
func HermSolve[T float32 | float64](n, m int, aRe, aIm, bRe, bIm, xRe, xIm []T) bool {
	switch n {
	case 1:
		d := aRe[0]
		if !(d > 0) { // also rejects NaN
			return false
		}
		inv := 1 / d
		for c := 0; c < m; c++ {
			xRe[c], xIm[c] = bRe[c]*inv, bIm[c]*inv
		}
		return true
	case 2:
		// A = [a conj(b); b c] = L D L^H with L = [1 0; l 1], l = b/a and
		// D = diag(a, c - |b|^2/a): the Cholesky below unrolled, without
		// the square roots.
		d0 := aRe[0]
		if !(d0 > 0) {
			return false
		}
		i0 := 1 / d0
		lr, li := aRe[2]*i0, aIm[2]*i0
		d1 := aRe[3] - (lr*aRe[2] + li*aIm[2])
		if !(d1 > 0) {
			return false
		}
		i1 := 1 / d1
		for k := 0; k < m; k++ {
			y0r, y0i := bRe[k], bIm[k]
			x1r := (bRe[m+k] - (lr*y0r - li*y0i)) * i1
			x1i := (bIm[m+k] - (lr*y0i + li*y0r)) * i1
			xRe[k] = y0r*i0 - (lr*x1r + li*x1i)
			xIm[k] = y0i*i0 - (lr*x1i - li*x1r)
			xRe[m+k], xIm[m+k] = x1r, x1i
		}
		return true
	}
	// L planes on the stack: row-major n x n lower triangle, with 1/L[j][j]
	// — all the substitutions need of the diagonal — in place of L[j][j].
	var lRe, lIm [maxHermDim * maxHermDim]T
	for j := 0; j < n; j++ {
		// Diagonal pivot: real by Hermitian symmetry.
		d := aRe[j*n+j]
		for k := 0; k < j; k++ {
			d -= lRe[j*n+k]*lRe[j*n+k] + lIm[j*n+k]*lIm[j*n+k]
		}
		if !(d > 0) {
			return false
		}
		inv := 1 / T(math.Sqrt(float64(d)))
		lRe[j*n+j] = inv
		for i := j + 1; i < n; i++ {
			sr, si := aRe[i*n+j], aIm[i*n+j]
			for k := 0; k < j; k++ {
				// L[i][k] * conj(L[j][k])
				ar, ai := lRe[i*n+k], lIm[i*n+k]
				br, bi := lRe[j*n+k], lIm[j*n+k]
				sr -= ar*br + ai*bi
				si -= ai*br - ar*bi
			}
			lRe[i*n+j] = sr * inv
			lIm[i*n+j] = si * inv
		}
	}
	if &xRe[0] != &bRe[0] {
		copy(xRe[:n*m], bRe[:n*m])
		copy(xIm[:n*m], bIm[:n*m])
	}
	// Forward solve L Y = B (Y overwrites X).
	for i := 0; i < n; i++ {
		inv := lRe[i*n+i]
		for c := 0; c < m; c++ {
			sr, si := xRe[i*m+c], xIm[i*m+c]
			for k := 0; k < i; k++ {
				ar, ai := lRe[i*n+k], lIm[i*n+k]
				br, bi := xRe[k*m+c], xIm[k*m+c]
				sr -= ar*br - ai*bi
				si -= ar*bi + ai*br
			}
			xRe[i*m+c] = sr * inv
			xIm[i*m+c] = si * inv
		}
	}
	// Back solve L^H X = Y: row i uses conj(L[k][i]) for k > i.
	for i := n - 1; i >= 0; i-- {
		inv := lRe[i*n+i]
		for c := 0; c < m; c++ {
			sr, si := xRe[i*m+c], xIm[i*m+c]
			for k := i + 1; k < n; k++ {
				// conj(L[k][i]) * X[k][c]
				ar, ai := lRe[k*n+i], -lIm[k*n+i]
				br, bi := xRe[k*m+c], xIm[k*m+c]
				sr -= ar*br - ai*bi
				si -= ar*bi + ai*br
			}
			xRe[i*m+c] = sr * inv
			xIm[i*m+c] = si * inv
		}
	}
	return true
}
