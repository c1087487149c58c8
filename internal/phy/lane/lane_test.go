package lane

import (
	"math"
	"math/cmplx"
	"testing"

	"ltephy/internal/phy/workspace"
	"ltephy/internal/rng"
)

// randVecs returns n-element split planes and the equivalent complex128
// vector, with every component exactly float32-representable.
func randVecs(r *rng.RNG, n int) ([]float32, []float32, []complex128) {
	re := make([]float32, n)
	im := make([]float32, n)
	c := make([]complex128, n)
	for k := 0; k < n; k++ {
		re[k] = float32(r.NormFloat64())
		im[k] = float32(r.NormFloat64())
		c[k] = complex(float64(re[k]), float64(im[k]))
	}
	return re, im, c
}

// checkClose compares a split-plane result against a complex128
// reference elementwise within a float32-rounding tolerance.
func checkClose(t *testing.T, name string, re, im []float32, want []complex128, tol float64) {
	t.Helper()
	for k := range want {
		got := complex(float64(re[k]), float64(im[k]))
		if d := cmplx.Abs(got - want[k]); d > tol*(1+cmplx.Abs(want[k])) {
			t.Fatalf("%s[%d] = %v, want %v (|diff| %g)", name, k, got, want[k], d)
		}
	}
}

func TestElementwiseKernels(t *testing.T) {
	r := rng.New(1)
	for _, n := range []int{1, 7, 24, 101} {
		are, aim, a := randVecs(r, n)
		bre, bim, b := randVecs(r, n)
		want := make([]complex128, n)
		dre, dim := make([]float32, n), make([]float32, n)

		Mul(dre, dim, are, aim, bre, bim)
		for k := range want {
			want[k] = a[k] * b[k]
		}
		checkClose(t, "Mul", dre, dim, want, 1e-6)

		MulConj(dre, dim, are, aim, bre, bim)
		for k := range want {
			want[k] = a[k] * cmplx.Conj(b[k])
		}
		checkClose(t, "MulConj", dre, dim, want, 1e-6)

		MulAcc(dre, dim, are, aim, bre, bim)
		for k := range want {
			want[k] += a[k] * b[k]
		}
		checkClose(t, "MulAcc", dre, dim, want, 1e-5)

		MulConjAcc(dre, dim, are, aim, bre, bim)
		for k := range want {
			want[k] += a[k] * cmplx.Conj(b[k])
		}
		checkClose(t, "MulConjAcc", dre, dim, want, 1e-5)

		alpha := complex(0.75, -1.25)
		yre, yim := append([]float32(nil), bre...), append([]float32(nil), bim...)
		Axpy(float32(real(alpha)), float32(imag(alpha)), are, aim, yre, yim)
		for k := range want {
			want[k] = b[k] + alpha*a[k]
		}
		checkClose(t, "Axpy", yre, yim, want, 1e-5)

		sre, sim := append([]float32(nil), are...), append([]float32(nil), aim...)
		Scale(0.5, sre, sim)
		for k := range want {
			want[k] = a[k] * 0.5
		}
		checkClose(t, "Scale", sre, sim, want, 1e-6)

		rot := cmplx.Exp(complex(0, 0.7))
		sre, sim = append([]float32(nil), are...), append([]float32(nil), aim...)
		ScaleC(float32(real(rot)), float32(imag(rot)), sre, sim)
		for k := range want {
			want[k] = a[k] * rot
		}
		checkClose(t, "ScaleC", sre, sim, want, 1e-5)

		mag := make([]float32, n)
		Mag2(mag, are, aim)
		for k := range a {
			w := real(a[k])*real(a[k]) + imag(a[k])*imag(a[k])
			if d := math.Abs(float64(mag[k]) - w); d > 1e-6*(1+w) {
				t.Fatalf("Mag2[%d] = %g, want %g", k, mag[k], w)
			}
		}
	}
}

func TestReductions(t *testing.T) {
	r := rng.New(2)
	n := 301
	are, aim, a := randVecs(r, n)
	bre, bim, b := randVecs(r, n)

	var wantPow float64
	var wantDot complex128
	var wantDiff float64
	for k := range a {
		wantPow += real(a[k])*real(a[k]) + imag(a[k])*imag(a[k])
		wantDot += a[k] * cmplx.Conj(b[k])
		d := a[k] - b[k]
		wantDiff += real(d)*real(d) + imag(d)*imag(d)
	}
	if got := SumMag2(are, aim); math.Abs(got-wantPow) > 1e-4*(1+wantPow) {
		t.Errorf("SumMag2 = %g, want %g", got, wantPow)
	}
	dr, di := DotConj(are, aim, bre, bim)
	if cmplx.Abs(complex(dr, di)-wantDot) > 1e-4*(1+cmplx.Abs(wantDot)) {
		t.Errorf("DotConj = (%g, %g), want %v", dr, di, wantDot)
	}
	if got := SumDiffMag2(are, aim, bre, bim); math.Abs(got-wantDiff) > 1e-4*(1+wantDiff) {
		t.Errorf("SumDiffMag2 = %g, want %g", got, wantDiff)
	}
}

// refHermSolve solves A X = B in complex128 by Gauss-Jordan, the oracle
// for the float32 Cholesky.
func refHermSolve(n, m int, a, b []complex128) []complex128 {
	aug := make([]complex128, n*(n+m))
	w := n + m
	for i := 0; i < n; i++ {
		copy(aug[i*w:i*w+n], a[i*n:(i+1)*n])
		copy(aug[i*w+n:(i+1)*w], b[i*m:(i+1)*m])
	}
	for col := 0; col < n; col++ {
		p := col
		for r := col + 1; r < n; r++ {
			if cmplx.Abs(aug[r*w+col]) > cmplx.Abs(aug[p*w+col]) {
				p = r
			}
		}
		for c := 0; c < w; c++ {
			aug[p*w+c], aug[col*w+c] = aug[col*w+c], aug[p*w+c]
		}
		inv := 1 / aug[col*w+col]
		for c := 0; c < w; c++ {
			aug[col*w+c] *= inv
		}
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := aug[r*w+col]
			for c := 0; c < w; c++ {
				aug[r*w+c] -= f * aug[col*w+c]
			}
		}
	}
	x := make([]complex128, n*m)
	for i := 0; i < n; i++ {
		copy(x[i*m:(i+1)*m], aug[i*w+n:(i+1)*w])
	}
	return x
}

func TestHermSolveMatchesComplexSolve(t *testing.T) {
	r := rng.New(3)
	for _, shape := range []struct{ n, m int }{{1, 1}, {2, 4}, {3, 3}, {4, 4}, {4, 8}, {8, 4}} {
		n, m := shape.n, shape.m
		a, b := hpdSystem(r, n, m, 0.1, false)
		want := refHermSolve(n, m, a, b)

		aRe, aIm := make([]float32, n*n), make([]float32, n*n)
		bRe, bIm := make([]float32, n*m), make([]float32, n*m)
		Pack(aRe, aIm, a)
		Pack(bRe, bIm, b)
		xRe, xIm := make([]float32, n*m), make([]float32, n*m)
		if !HermSolve(n, m, aRe, aIm, bRe, bIm, xRe, xIm) {
			t.Fatalf("n=%d m=%d: HermSolve reported singular on an HPD matrix", n, m)
		}
		checkClose(t, "HermSolve", xRe, xIm, want, 2e-4)

		// Aliased solve (X overwrites B) must give the same answer.
		if !HermSolve(n, m, aRe, aIm, bRe, bIm, bRe, bIm) {
			t.Fatalf("n=%d m=%d: aliased HermSolve reported singular", n, m)
		}
		for i := range xRe {
			if xRe[i] != bRe[i] || xIm[i] != bIm[i] {
				t.Fatalf("n=%d m=%d: aliased solve diverged at %d", n, m, i)
			}
		}
	}
}

// hpdSystem returns A = H^H H + load*I for a random (n+2) x n H — the
// exact structure of the MMSE Gram matrix — and a random n x m right-hand
// side. With rank1 every column of H is the same, so only the loading
// keeps A positive definite.
func hpdSystem(r *rng.RNG, n, m int, load float64, rank1 bool) (a, b []complex128) {
	rows := n + 2
	h := make([]complex128, rows*n)
	for i := range h {
		h[i] = complex(r.NormFloat64(), r.NormFloat64())
		if rank1 {
			h[i] = h[i/n*n]
		}
	}
	a = make([]complex128, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var s complex128
			for k := 0; k < rows; k++ {
				s += cmplx.Conj(h[k*n+i]) * h[k*n+j]
			}
			a[i*n+j] = s
		}
		a[i*n+i] += complex(load, 0)
	}
	b = make([]complex128, n*m)
	for i := range b {
		b[i] = complex(r.NormFloat64(), r.NormFloat64())
	}
	return a, b
}

func splitPlanes(v []complex128) (re, im []float64) {
	re, im = make([]float64, len(v)), make([]float64, len(v))
	for i, c := range v {
		re[i], im[i] = real(c), imag(c)
	}
	return re, im
}

// TestHermSolveFloat64MatchesGaussJordan pins the float64 instantiation —
// the complex128 receiver's solver, and the oracle the float32 one is
// measured against — to the pivoted Gauss-Jordan solve at every order:
// well conditioned to 1e-12, and on a rank-1 Gram held up by a loading of
// 1e-12 (condition ~1e13) through the residual A X - B, which a backward
// stable solve keeps small where the solution itself has few good digits.
func TestHermSolveFloat64MatchesGaussJordan(t *testing.T) {
	r := rng.New(5)
	for n := 1; n <= maxHermDim; n++ {
		for _, m := range []int{1, 4, 8} {
			a, b := hpdSystem(r, n, m, 0.1, false)
			want := refHermSolve(n, m, a, b)
			aRe, aIm := splitPlanes(a)
			bRe, bIm := splitPlanes(b)
			xRe, xIm := make([]float64, n*m), make([]float64, n*m)
			if !HermSolve(n, m, aRe, aIm, bRe, bIm, xRe, xIm) {
				t.Fatalf("n=%d m=%d: reported singular on an HPD matrix", n, m)
			}
			for i, w := range want {
				if d := cmplx.Abs(complex(xRe[i], xIm[i]) - w); d > 1e-12*(1+cmplx.Abs(w)) {
					t.Fatalf("n=%d m=%d: X[%d] differs from Gauss-Jordan by %g", n, m, i, d)
				}
			}

			a, b = hpdSystem(r, n, m, 1e-12, true)
			aRe, aIm = splitPlanes(a)
			bRe, bIm = splitPlanes(b)
			if !HermSolve(n, m, aRe, aIm, bRe, bIm, xRe, xIm) {
				if n == 1 {
					t.Fatalf("m=%d: reported singular at order 1", m)
				}
				continue // the loading can round away entirely; rejecting is allowed
			}
			for i := 0; i < n; i++ {
				for c := 0; c < m; c++ {
					res, scale := -b[i*m+c], cmplx.Abs(b[i*m+c])
					for k := 0; k < n; k++ {
						term := a[i*n+k] * complex(xRe[k*m+c], xIm[k*m+c])
						res += term
						scale += cmplx.Abs(term)
					}
					if cmplx.Abs(res) > 1e-12*scale {
						t.Fatalf("n=%d m=%d ill-conditioned: residual %g at (%d,%d), scale %g", n, m, cmplx.Abs(res), i, c, scale)
					}
				}
			}
		}
	}
}

// TestHermSolveSingular: matrices that are not positive definite — the
// all-zero one the receiver meets on all-zero input, a NaN or negative
// pivot at any position — are reported at both widths and every order,
// not NaN'd through and never a panic.
func TestHermSolveSingular(t *testing.T) {
	for n := 1; n <= maxHermDim; n++ {
		for _, bad := range []float64{0, -1, math.NaN()} {
			for at := 0; at < n; at++ {
				a := make([]float64, n*n)
				for i := 0; i < n; i++ {
					a[i*n+i] = 1
				}
				a[at*n+at] = bad
				zero := make([]float64, n*n)
				b, x := make([]float64, n), make([]float64, n)
				if HermSolve(n, 1, a, zero, b, zero[:n], x, make([]float64, n)) {
					t.Errorf("float64 n=%d: accepted pivot %g at %d", n, bad, at)
				}
				a32 := make([]float32, n*n)
				for i, v := range a {
					a32[i] = float32(v)
				}
				z32 := make([]float32, n*n)
				if HermSolve(n, 1, a32, z32, make([]float32, n), z32[:n], make([]float32, n), make([]float32, n)) {
					t.Errorf("float32 n=%d: accepted pivot %g at %d", n, bad, at)
				}
			}
		}
	}
}

func TestVecArena(t *testing.T) {
	ws := workspace.New()
	m := ws.Mark()
	v := NewVecIn(ws, 17)
	if v.Len() != 17 || len(v.Im) != 17 {
		t.Fatalf("NewVecIn planes %d/%d, want 17", len(v.Re), len(v.Im))
	}
	s := v.Slice(3, 9)
	if s.Len() != 6 {
		t.Fatalf("Slice len %d, want 6", s.Len())
	}
	ws.Release(m)

	hv := NewVecIn(nil, 5)
	if hv.Len() != 5 {
		t.Fatalf("nil-arena NewVecIn len %d, want 5", hv.Len())
	}
}

func TestPackUnpackRoundTrip(t *testing.T) {
	r := rng.New(4)
	for _, n := range []int{0, 1, 2, 3, 15, 64, 129} {
		re, im, c := randVecs(r, n)
		gotC := make([]complex128, n)
		Unpack(gotC, re, im)
		for k := range c {
			if gotC[k] != c[k] {
				t.Fatalf("n=%d: Unpack[%d] = %v, want %v", n, k, gotC[k], c[k])
			}
		}
		gre, gim := make([]float32, n), make([]float32, n)
		Pack(gre, gim, gotC)
		for k := 0; k < n; k++ {
			if gre[k] != re[k] || gim[k] != im[k] {
				t.Fatalf("n=%d: pack/unpack round trip diverged at %d", n, k)
			}
		}
	}
}
