// Package lane implements the split-plane data layout the receiver hot
// path runs on: a complex vector stored as two separate contiguous slices
// (the re plane and the im plane) instead of an array-of-structs
// []complex128. Every kernel is generic over the element width
// (workspace.Float): the receiver instantiates it at float64, its default
// and accuracy oracle, and at float32.
//
// Every kernel below is a stride-1 loop over the planes with the slice
// lengths hoisted so the Go compiler eliminates bounds checks and can keep
// the whole loop in registers. Go does not vectorise, so against the
// interleaved layout the planes buy stride-1 loops, not SIMD width
// (DESIGN.md §10).
//
// Precision contract: each kernel performs the same operations in the same
// order at both widths, so the float64 instance reproduces interleaved
// complex128 arithmetic bit for bit, and the float32 one carries ~7
// decimal digits. Kernels that reduce over a whole vector (conjugate dot,
// difference power) accumulate in float64 at both widths so the reduction
// error does not grow with vector length.
//
// Memory comes from the caller: planes are ordinary slices, typically
// carved from a per-worker workspace.Arena via NewVecIn. All kernels are
// allocation-free and safe for concurrent use on disjoint planes.
package lane

import (
	"math"

	"ltephy/internal/phy/workspace"
)

// Vec is a split-plane complex vector: element k is
// complex(Re[k], Im[k]). Both planes always have equal length.
type Vec[F workspace.Float] struct {
	Re, Im []F
}

// NewVecIn carves a zeroed n-element vector from ws (heap when nil).
//
// vector's lifetime with its own Mark/Release.
//
//ltephy:owns-scratch — carve constructor: the caller brackets the
func NewVecIn[F workspace.Float](ws *workspace.Arena, n int) Vec[F] {
	return Vec[F]{Re: workspace.Floats[F](ws, n), Im: workspace.Floats[F](ws, n)}
}

// Pack converts an interleaved complex128 vector into split planes,
// rounding each component to F (exact at float64). dre and dim must have
// the same length as src — this is the only conversion point between the
// complex128 world and the lane layout (the receiver's job boundary).
func Pack[F workspace.Float](dre, dim []F, src []complex128) {
	n := len(src)
	dre = dre[:n]
	dim = dim[:n]
	for k := 0; k < n; k++ {
		v := src[k]
		dre[k] = F(real(v))
		dim[k] = F(imag(v))
	}
}

// Unpack converts split planes back to an interleaved complex128 vector.
// A Pack/Unpack round trip starting from F-representable values is
// bit-exact: widening to float64 and narrowing back is the identity
// conversion (FuzzLanePackUnpack pins this for all lengths including odd
// tails).
func Unpack[F workspace.Float](dst []complex128, sre, sim []F) {
	n := len(dst)
	sre = sre[:n]
	sim = sim[:n]
	for k := 0; k < n; k++ {
		dst[k] = complex(float64(sre[k]), float64(sim[k]))
	}
}

// MulConj computes d = a * conj(b) elementwise — the matched-filter
// kernel (unit-modulus reference, so conjugate multiply inverts the
// known sequence).
func MulConj[F workspace.Float](dre, dim, are, aim, bre, bim []F) {
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
func MulAcc[F workspace.Float](dre, dim, are, aim, bre, bim []F) {
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

// Scale multiplies both planes by the real scalar s in place (the
// despread sqrt(N) undo).
func Scale[F workspace.Float](s F, re, im []F) {
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
func ScaleC[F workspace.Float](cr, ci F, re, im []F) {
	n := len(re)
	im = im[:n]
	for k := 0; k < n; k++ {
		r, i := re[k], im[k]
		re[k] = r*cr - i*ci
		im[k] = r*ci + i*cr
	}
}

// DotConj returns sum_k a[k] * conj(b[k]) with float64 accumulation —
// the correlation reduction behind the CFO estimate.
func DotConj[F workspace.Float](are, aim, bre, bim []F) (re, im float64) {
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
func SumDiffMag2[F workspace.Float](are, aim, bre, bim []F) float64 {
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
// and 2. It returns false when a pivot is not positive (a numerically
// singular or NaN channel) and the caller zeroes its output. n must be
// <= 8.
func HermSolve[T workspace.Float](n, m int, aRe, aIm, bRe, bIm, xRe, xIm []T) bool {
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
