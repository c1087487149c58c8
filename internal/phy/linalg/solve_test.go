package linalg

import (
	"math/cmplx"
	"testing"

	"ltephy/internal/phy/lane"
	"ltephy/internal/rng"
)

// randChannelF32 returns a random ant x layers channel in both layouts,
// with float32-representable entries so both paths see identical inputs.
func randChannelF32(r *rng.RNG, ant, layers int) (hRe, hIm []float32, h Matrix) {
	hRe = make([]float32, ant*layers)
	hIm = make([]float32, ant*layers)
	h = NewMatrix(ant, layers)
	for i := range hRe {
		hRe[i] = float32(r.NormFloat64())
		hIm[i] = float32(r.NormFloat64())
		h.Data[i] = complex(float64(hRe[i]), float64(hIm[i]))
	}
	return
}

func checkWeightsF32(t *testing.T, name string, ant, layers int, gotRe, gotIm []float32, want Matrix, tol float64) {
	t.Helper()
	for i := 0; i < layers*ant; i++ {
		got := complex(float64(gotRe[i]), float64(gotIm[i]))
		if d := cmplx.Abs(got - want.Data[i]); d > tol*(1+cmplx.Abs(want.Data[i])) {
			t.Fatalf("%s ant=%d layers=%d: W[%d] = %v, want %v (|diff| %g)",
				name, ant, layers, i, got, want.Data[i], d)
		}
	}
}

// TestMMSESolveF32MatchesFloat64 pins the float32 instantiation of the
// MMSE solve against the float64 one (itself pinned to Gauss-Jordan by
// TestMMSESolveMatchesGaussJordan) across the receiver's shape range.
func TestMMSESolveF32MatchesFloat64(t *testing.T) {
	r := rng.New(21)
	for _, shape := range []struct{ ant, layers int }{{1, 1}, {2, 1}, {2, 2}, {4, 1}, {4, 2}, {4, 4}, {8, 4}} {
		ant, layers := shape.ant, shape.layers
		hRe, hIm, h := randChannelF32(r, ant, layers)
		nv := 0.05

		want := NewMatrix(layers, ant)
		if err := NewMMSEWorkspace(ant, layers).Solve(&want, h, nv); err != nil {
			t.Fatalf("ant=%d layers=%d: float64 solve failed: %v", ant, layers, err)
		}
		gotRe := make([]float32, layers*ant)
		gotIm := make([]float32, layers*ant)
		if !MMSESolve(gotRe, gotIm, hRe, hIm, ant, layers, float32(nv)) {
			t.Fatalf("ant=%d layers=%d: MMSESolve reported singular", ant, layers)
		}
		checkWeightsF32(t, "MMSE", ant, layers, gotRe, gotIm, want, 5e-4)
	}
}

// TestMMSESolveF32Singular checks the all-zero channel is reported, not
// NaN'd through.
func TestMMSESolveF32Singular(t *testing.T) {
	hRe := make([]float32, 8)
	hIm := make([]float32, 8)
	gotRe := make([]float32, 8)
	gotIm := make([]float32, 8)
	if MMSESolve(gotRe, gotIm, hRe, hIm, 4, 2, 0) {
		t.Error("MMSESolve accepted an all-zero channel with zero loading")
	}
}

// TestIRCSolveMatchesGaussJordan pins both instantiations of the IRC solve
// against the explicit-inverse oracle with a realistic loaded covariance.
func TestIRCSolveMatchesGaussJordan(t *testing.T) {
	r := rng.New(22)
	for _, shape := range []struct{ ant, layers int }{{2, 1}, {4, 2}, {4, 4}, {8, 4}} {
		ant, layers := shape.ant, shape.layers
		hRe, hIm, h := randChannelF32(r, ant, layers)

		// Covariance R = E e e^H + loading, built from a few float32-exact
		// residual vectors so it is Hermitian PSD by construction.
		rcov := NewMatrix(ant, ant)
		rRe := make([]float32, ant*ant)
		rIm := make([]float32, ant*ant)
		for snap := 0; snap < 3*ant; snap++ {
			e := make([]complex128, ant)
			for a := range e {
				er := float32(r.NormFloat64())
				ei := float32(r.NormFloat64())
				e[a] = complex(float64(er), float64(ei))
			}
			for a := 0; a < ant; a++ {
				for b := 0; b < ant; b++ {
					rcov.Data[a*ant+b] += e[a] * cmplx.Conj(e[b])
				}
			}
		}
		scale := complex(1/float64(3*ant), 0)
		for i := range rcov.Data {
			rcov.Data[i] *= scale
		}
		addDiag(rcov, 0.01)
		lane.Pack(rRe, rIm, rcov.Data)
		// Re-widen so the oracle sees exactly the float32-rounded R.
		lane.Unpack(rcov.Data, rRe, rIm)

		want := refIRC(t, rcov, h)
		// The float64 instantiation against the explicit-inverse oracle.
		r64Re, r64Im := make([]float64, ant*ant), make([]float64, ant*ant)
		h64Re, h64Im := make([]float64, ant*layers), make([]float64, ant*layers)
		w64Re, w64Im := make([]float64, ant*layers), make([]float64, ant*layers)
		for i, v := range rcov.Data {
			r64Re[i], r64Im[i] = real(v), imag(v)
		}
		for i, v := range h.Data {
			h64Re[i], h64Im[i] = real(v), imag(v)
		}
		if !IRCSolve(w64Re, w64Im, r64Re, r64Im, h64Re, h64Im, ant, layers) {
			t.Fatalf("ant=%d layers=%d: float64 IRCSolve reported singular", ant, layers)
		}
		for i, v := range want.Data {
			if d := cmplx.Abs(complex(w64Re[i], w64Im[i]) - v); d > 1e-10 {
				t.Fatalf("ant=%d layers=%d: float64 IRCSolve W[%d] differs from Gauss-Jordan by %g", ant, layers, i, d)
			}
		}
		gotRe := make([]float32, layers*ant)
		gotIm := make([]float32, layers*ant)
		if !IRCSolve(gotRe, gotIm, rRe, rIm, hRe, hIm, ant, layers) {
			t.Fatalf("ant=%d layers=%d: IRCSolve reported singular", ant, layers)
		}
		checkWeightsF32(t, "IRC", ant, layers, gotRe, gotIm, want, 2e-3)
	}
}

// TestIRCSolveDegenerateCovariance checks the identity-whitening
// fallback: an all-zero covariance must behave like MMSE with unit
// loading, matching irc.go's complex128 fallback.
func TestIRCSolveDegenerateCovariance(t *testing.T) {
	r := rng.New(23)
	ant, layers := 4, 2
	hRe, hIm, h := randChannelF32(r, ant, layers)
	rRe := make([]float32, ant*ant)
	rIm := make([]float32, ant*ant)

	want := NewMatrix(layers, ant)
	if err := NewMMSEWorkspace(ant, layers).Solve(&want, h, 1); err != nil {
		t.Fatalf("reference MMSE solve failed: %v", err)
	}
	gotRe := make([]float32, layers*ant)
	gotIm := make([]float32, layers*ant)
	if !IRCSolve(gotRe, gotIm, rRe, rIm, hRe, hIm, ant, layers) {
		t.Fatal("IRCSolve failed on the degenerate-covariance fallback")
	}
	checkWeightsF32(t, "IRC-fallback", ant, layers, gotRe, gotIm, want, 5e-4)
}
